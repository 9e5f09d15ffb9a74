"""Stats-schema consistency pass.

The simulator's credibility argument is bit-reproducible stats, which
makes stat *names* load-bearing in three places that no compiler ties
together: the registration sites in code, the checked-in golden-stats
JSON keys, and the names cited in the docs.  This pass extracts the
code-side schema and cross-checks the other two, so a rename breaks
analysis instead of silently orphaning goldens:

  stats-schema/orphaned-golden-key  a golden_stats*.json stat key that
                                    is no longer a RunResult field
  stats-schema/unknown-golden-run   a golden run key whose workload or
                                    org label no longer exists
  stats-schema/unknown-lookup       findCounter()/findDistribution()
                                    naming an unregistered stat
  stats-schema/unknown-doc-stat     a doc-cited dotted stat name that
                                    is not registered anywhere

Schema extraction is lexical.  Full names come from string literals in
construction position (``swaps_("cameo.swaps", ...)``, or in place:
``stacked_.emplace("dram.stacked", ...)``); composed names
(``name_ + ".hits"``) contribute a base ("l3") and a suffix (".hits")
that citations may combine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..model import Finding, Repo

NAME = "stats-schema"
RULES = [
    "stats-schema/orphaned-golden-key",
    "stats-schema/unknown-golden-run",
    "stats-schema/unknown-lookup",
    "stats-schema/unknown-doc-stat",
]

GOLDEN_GLOB = "tests/golden/golden_stats*.json"
RUN_RESULT_HEADER = "src/system/system.hh"
WORKLOADS_FILE = "src/trace/workloads.cc"
GOLDEN_COMMON = "tests/golden_common.hh"
DOC_FILES = ("DESIGN.md", "EXPERIMENTS.md", "README.md")

_FULL_NAME_RE = re.compile(r"^[a-z][A-Za-z0-9]*(\.[A-Za-z0-9]+)+$")
_BASE_NAME_RE = re.compile(r"^[a-z][a-z0-9]*$")
_SUFFIX_RE = re.compile(r"^\.[a-zA-Z][A-Za-z0-9]*$")
_DOC_CITE_RE = re.compile(r"`([A-Za-z0-9_.]+)`")
_CTOR_IDENTS = {"Counter", "Distribution", "makeCounter",
                "makeDistribution", "emplace"}
_LOOKUP_IDENTS = {"findCounter", "findDistribution"}
_FILE_EXTENSIONS = {
    "hh", "cc", "hpp", "cpp", "h", "py", "json", "md", "yml", "yaml",
    "txt", "csv", "cmake", "sh", "js", "html", "sarif",
}


@dataclass
class Schema:
    full: set[str] = field(default_factory=set)
    bases: set[str] = field(default_factory=set)
    suffixes: set[str] = field(default_factory=set)
    lookups: list[tuple[str, str, int]] = field(default_factory=list)

    def resolves(self, name: str) -> bool:
        if name in self.full:
            return True
        head, dot, tail = name.rpartition(".")
        if not dot:
            return False
        return (head in self.full or head in self.bases) and \
            ("." + tail) in self.suffixes

    @property
    def prefixes(self) -> set[str]:
        return {n.split(".", 1)[0] for n in self.full} | self.bases


def extract_schema(repo: Repo) -> Schema:
    schema = Schema()
    for sf in repo.src_files():
        tokens = sf.lexed.tokens
        for i, t in enumerate(tokens):
            if t.kind != "string":
                continue
            prev = tokens[i - 1] if i > 0 else None
            prev2 = tokens[i - 2] if i > 1 else None
            in_ctor = (
                prev is not None
                and prev.text == "("
                and prev2 is not None
                and prev2.kind == "ident"
                and (prev2.text.endswith("_")
                     or prev2.text in _CTOR_IDENTS)
            )
            if in_ctor and prev2.text in _LOOKUP_IDENTS:
                in_ctor = False
            if in_ctor:
                if _FULL_NAME_RE.match(t.text):
                    schema.full.add(t.text)
                elif _BASE_NAME_RE.match(t.text):
                    schema.bases.add(t.text)
            if (
                prev is not None
                and prev.text == "("
                and prev2 is not None
                and prev2.kind == "ident"
                and prev2.text in _LOOKUP_IDENTS
                and _FULL_NAME_RE.match(t.text)
            ):
                schema.lookups.append((t.text, sf.rel, t.line))
            # Composed-name suffix: ".hits" adjacent to a '+' token.
            if _SUFFIX_RE.match(t.text):
                neighbor = prev.text if prev is not None else ""
                nxt = tokens[i + 1] if i + 1 < len(tokens) else None
                if neighbor == "+" or (nxt is not None
                                       and nxt.text == "+"):
                    schema.suffixes.add(t.text)
    return schema


def run_result_fields(repo: Repo) -> set[str]:
    sf = repo.by_rel.get(RUN_RESULT_HEADER)
    if sf is None:
        return set()
    tokens = sf.lexed.tokens
    fields: set[str] = set()
    i = 0
    n = len(tokens)
    while i < n - 1:
        if (
            tokens[i].kind == "ident"
            and tokens[i].text == "struct"
            and tokens[i + 1].kind == "ident"
            and tokens[i + 1].text == "RunResult"
        ):
            break
        i += 1
    else:
        return fields
    depth = 0
    while i < n:
        t = tokens[i]
        if t.kind == "punct" and t.text == "{":
            depth += 1
        elif t.kind == "punct" and t.text == "}":
            depth -= 1
            if depth == 0:
                break
        elif t.kind == "ident" and depth == 1:
            nxt = tokens[i + 1] if i + 1 < n else None
            if nxt is not None and nxt.kind == "punct" and \
                    nxt.text in ("=", ";", "{"):
                prev = tokens[i - 1]
                if prev.kind == "ident" or (
                    prev.kind == "punct" and prev.text in (">", "*", "&")
                ):
                    fields.add(t.text)
        i += 1
    return fields


def _string_literals(repo: Repo, rel: str) -> set[str]:
    sf = repo.by_rel.get(rel)
    if sf is None:
        return set()
    return {t.text for t in sf.lexed.string_literals()}


def _line_of(text: str, needle: str) -> int:
    for lineno, line in enumerate(text.splitlines(), 1):
        if needle in line:
            return lineno
    return 1


def run(repo: Repo) -> list[Finding]:
    findings: list[Finding] = []
    schema = extract_schema(repo)
    fields = run_result_fields(repo)
    workload_names = {
        s
        for s in _string_literals(repo, WORKLOADS_FILE)
        if _BASE_NAME_RE.match(s)
    }
    org_labels = _string_literals(repo, GOLDEN_COMMON)

    for golden_path in sorted(repo.root.glob(GOLDEN_GLOB)):
        rel = golden_path.relative_to(repo.root).as_posix()
        data = repo.read_json(rel)
        text = repo.read_text(rel) or ""
        if not isinstance(data, dict):
            continue
        for run_key, stats in data.items():
            if not isinstance(stats, dict):
                continue
            workload, _, org = run_key.partition("/")
            if fields or workload_names:
                if workload_names and workload not in workload_names:
                    findings.append(
                        Finding(
                            "stats-schema/unknown-golden-run",
                            rel,
                            _line_of(text, f'"{run_key}"'),
                            f'run key "{run_key}": workload '
                            f'"{workload}" is not defined in '
                            f"{WORKLOADS_FILE}",
                        )
                    )
                if org_labels and org and org not in org_labels:
                    findings.append(
                        Finding(
                            "stats-schema/unknown-golden-run",
                            rel,
                            _line_of(text, f'"{run_key}"'),
                            f'run key "{run_key}": org label "{org}" '
                            f"is not defined in {GOLDEN_COMMON}",
                        )
                    )
            for stat_key in stats:
                if fields and stat_key not in fields:
                    findings.append(
                        Finding(
                            "stats-schema/orphaned-golden-key",
                            rel,
                            _line_of(text, f'"{stat_key}"'),
                            f'stat key "{stat_key}" is not a RunResult '
                            f"field in {RUN_RESULT_HEADER}; the golden "
                            f"entry is orphaned (rename drift?)",
                        )
                    )

    for name, rel, line in schema.lookups:
        if not schema.resolves(name):
            findings.append(
                Finding(
                    "stats-schema/unknown-lookup",
                    rel,
                    line,
                    f'stat lookup "{name}" matches no registered stat '
                    f"name; registration and lookup have drifted",
                )
            )

    prefixes = schema.prefixes
    for doc in DOC_FILES:
        text = repo.read_text(doc)
        if text is None:
            continue
        for lineno, line in enumerate(text.splitlines(), 1):
            for m in _DOC_CITE_RE.finditer(line):
                cited = m.group(1)
                if "." not in cited or not _FULL_NAME_RE.match(cited):
                    continue
                if cited.rsplit(".", 1)[-1] in _FILE_EXTENSIONS:
                    continue
                if cited.split(".", 1)[0] not in prefixes:
                    continue
                if not schema.resolves(cited):
                    findings.append(
                        Finding(
                            "stats-schema/unknown-doc-stat",
                            doc,
                            lineno,
                            f"`{cited}` is cited here but no such stat "
                            f"is registered in src/",
                        )
                    )
    return findings
