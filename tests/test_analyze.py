#!/usr/bin/env python3
"""Self-tests for tools/analyze.

Runs the analyzer over the deliberately broken fixture tree in
tests/analyze_fixtures/badrepo and asserts that

  * every pass fires at least one finding of each seeded rule,
  * in-file suppressions suppress (and bad ones are findings),
  * the SARIF output is valid 2.1.0 and matches the checked-in
    snapshot byte for byte,
  * baselines round-trip (update, then re-run -> zero new),
  * the real repository analyzes clean.

Registered with ctest as `analyze.selftest`.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from analyze.cli import main as cli_main  # noqa: E402
from analyze.model import Repo, apply_suppressions  # noqa: E402
from analyze.passes import ALL_PASSES, pass_names  # noqa: E402
from analyze.passes.stats_schema import extract_schema  # noqa: E402

FIXTURE = REPO / "tests" / "analyze_fixtures" / "badrepo"
GOLDEN_SARIF = REPO / "tests" / "analyze_fixtures" / "expected.sarif"

# rule -> a file (repo-relative) it must fire in.
EXPECTED = {
    "layering/upward-include": "src/core/engine.hh",
    "layering/cycle": "src/core/engine.hh",
    "layering/dead-include": "src/core/engine.hh",
    "layering/unresolved-include": "src/core/tainted.cc",
    "layering/cross-band": "src/vm/table.hh",
    "layering/unmapped-dir": "src/stray",
    "stats-schema/orphaned-golden-key": "tests/golden/golden_stats.json",
    "stats-schema/unknown-golden-run": "tests/golden/golden_stats.json",
    "stats-schema/unknown-lookup": "src/core/tainted.cc",
    "stats-schema/unknown-doc-stat": "DESIGN.md",
    "determinism/tainted-include": "src/core/tainted.cc",
    "audit-coverage/unaudited-mutation": "src/core/line_location_table.cc",
    "conventions/include-guard": "src/core/engine.hh",
    "conventions/file-doc": "src/core/engine.hh",
    "conventions/nondeterminism": "src/core/clocky.hh",
    "conventions/hygiene": "src/core/engine.hh",
    "conventions/hot-path-container": "src/vm/table.hh",
    "conventions/generator-use": "src/exp/top.hh",
    "conventions/dram-pipeline": "src/core/controller.cc",
    "suppression/missing-justification": "src/core/clocky.hh",
    "suppression/unused": "src/stray/thing.hh",
}


def analyze_fixture():
    repo = Repo.load(FIXTURE)
    findings = []
    for pass_module in ALL_PASSES:
        findings.extend(pass_module.run(repo))
    return repo, *apply_suppressions(repo, findings)


def run_cli(argv):
    """cli.main() with captured stdout/stderr -> (exit, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


class FixtureFindingsTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.repo, cls.active, cls.suppressed = analyze_fixture()
        cls.fired = {(f.rule, f.path) for f in cls.active}

    def test_every_seeded_rule_fires_in_its_file(self):
        for rule, path in EXPECTED.items():
            with self.subTest(rule=rule):
                self.assertIn((rule, path), self.fired)

    def test_every_pass_fires(self):
        fired_passes = {rule.split("/", 1)[0] for rule, _ in self.fired}
        self.assertLessEqual(set(pass_names()), fired_passes)

    def test_transitive_taint_reports_the_chain(self):
        msgs = [
            f.message
            for f in self.active
            if f.rule == "determinism/tainted-include"
            and f.path == "src/core/tainted.cc"
        ]
        self.assertEqual(len(msgs), 1)
        self.assertIn("src/core/clocky.hh -> <chrono>", msgs[0])

    def test_dram_pipeline_matches_member_and_optional_spellings(self):
        # offchip_.request( on line 12 and stacked_->access( on line 18.
        lines = sorted(
            f.line
            for f in self.active
            if f.rule == "conventions/dram-pipeline"
            and f.path == "src/core/controller.cc"
        )
        self.assertEqual(lines, [12, 18])

    def test_justified_suppression_suppresses(self):
        self.assertEqual(
            [(f.rule, f.path) for f in self.suppressed],
            [("conventions/hygiene", "src/core/tainted.cc")],
        )

    def test_fixture_manifest_is_used(self):
        # The upward edge is core (band 3) -> exp (band 5) in the
        # fixture's own layers.json, not the repo-level manifest.
        msgs = [
            f.message
            for f in self.active
            if f.rule == "layering/upward-include"
        ]
        self.assertTrue(any("band 3" in m and "band 5" in m for m in msgs))


class SarifTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.sarif"
            code, _, _ = run_cli(
                [str(FIXTURE), "--no-baseline", "--sarif", str(out)]
            )
            cls.exit_code = code
            cls.text = out.read_text(encoding="utf-8")
        cls.log = json.loads(cls.text)

    def test_exit_code_signals_new_findings(self):
        self.assertEqual(self.exit_code, 1)

    def test_matches_golden_snapshot(self):
        self.assertEqual(
            self.text,
            GOLDEN_SARIF.read_text(encoding="utf-8"),
            "SARIF drifted; regenerate per tests/analyze_fixtures/"
            "README.md if the change is intentional",
        )

    def test_is_valid_sarif_2_1_0(self):
        self.assertEqual(self.log["version"], "2.1.0")
        self.assertIn("sarif-schema-2.1.0", self.log["$schema"])
        runs = self.log["runs"]
        self.assertEqual(len(runs), 1)
        driver = runs[0]["tool"]["driver"]
        self.assertEqual(driver["name"], "cameo-analyze")
        declared = {r["id"] for r in driver["rules"]}
        for result in runs[0]["results"]:
            self.assertIn(result["ruleId"], declared)
            loc = result["locations"][0]["physicalLocation"]
            self.assertEqual(
                loc["artifactLocation"]["uriBaseId"], "SRCROOT"
            )
            self.assertGreaterEqual(loc["region"]["startLine"], 1)

    def test_suppressed_results_are_marked(self):
        kinds = [
            s["kind"]
            for result in self.log["runs"][0]["results"]
            for s in result.get("suppressions", [])
        ]
        self.assertEqual(kinds, ["inSource"])


class BaselineTest(unittest.TestCase):
    def test_update_then_rerun_is_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            baseline = Path(tmp) / "baseline.json"
            code, _, err = run_cli(
                [str(FIXTURE), "--baseline", str(baseline),
                 "--update-baseline"]
            )
            self.assertEqual(code, 0, err)
            self.assertTrue(baseline.is_file())
            code, out, err = run_cli(
                [str(FIXTURE), "--baseline", str(baseline)]
            )
            self.assertEqual(code, 0, err)
            self.assertEqual(out, "")
            self.assertIn("0 new", err)

    def test_baseline_survives_unrelated_line_shifts(self):
        import shutil

        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "badrepo"
            shutil.copytree(FIXTURE, copy)
            baseline = Path(tmp) / "baseline.json"
            code, _, _ = run_cli(
                [str(copy), "--baseline", str(baseline),
                 "--update-baseline"]
            )
            self.assertEqual(code, 0)
            # Insert comment lines mid-file: the hygiene findings on
            # the tab/trailing-space line move down two lines, but the
            # flagged line's text is unchanged, so nothing is new.
            engine = copy / "src" / "core" / "engine.hh"
            engine.write_text(
                engine.read_text().replace(
                    "inline int\n", "// shifted\n// shifted\ninline int\n"
                )
            )
            code, out, err = run_cli(
                [str(copy), "--baseline", str(baseline)]
            )
            self.assertEqual(code, 0, out + err)


class RealRepoTest(unittest.TestCase):
    def test_schema_sees_both_dram_modules(self):
        # The stacked module is built in place (std::optional::emplace);
        # its stat prefix must still count as registered.
        schema = extract_schema(Repo.load(REPO))
        self.assertLessEqual({"dram.offchip", "dram.stacked"}, schema.full)

    def test_repository_analyzes_clean(self):
        code, out, err = run_cli([str(REPO)])
        self.assertEqual(
            code, 0,
            "tools/analyze reports new findings:\n" + out + err,
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
