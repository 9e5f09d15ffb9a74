/**
 * @file
 * trace_tools: record, inspect, and replay binary trace files.
 *
 *   trace_tools record <workload> <out.trc> [count] [raw|packed]
 *       Record a synthetic stream to a trace file (default packed,
 *       the compact version-2 format; raw emits fixed 24-byte
 *       records).
 *   trace_tools info <trace.trc>
 *       Print format, record count, and summary statistics.
 *   trace_tools replay <trace.trc> <org> [accessesPerCore]
 *       Run a simulation where every core replays the trace
 *       (rate mode, staggered start offsets per core). Traces are
 *       mmap'd where the platform allows, so replay is zero-copy.
 *
 * Both formats are documented in src/trace/trace_file.hh; external
 * tracers (Pin, DynamoRIO, gem5 probes) can emit the raw one
 * directly.
 */

#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "system/system.hh"
#include "trace/generator.hh"
#include "trace/trace_file.hh"

namespace
{

using namespace cameo;

int
cmdRecord(int argc, char **argv)
{
    if (argc < 4) {
        std::cerr << "usage: trace_tools record <workload> <out.trc> "
                     "[count] [raw|packed]\n";
        return EXIT_FAILURE;
    }
    const WorkloadProfile *profile = findWorkload(argv[2]);
    if (profile == nullptr) {
        std::cerr << "unknown workload '" << argv[2] << "'\n";
        return EXIT_FAILURE;
    }
    const std::uint64_t count =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 200'000;
    TraceFormat format = TraceFormat::Packed;
    if (argc > 5) {
        const std::string name = argv[5];
        if (name == "raw")
            format = TraceFormat::Raw;
        else if (name != "packed") {
            std::cerr << "unknown format '" << name
                      << "' (raw|packed)\n";
            return EXIT_FAILURE;
        }
    }
    const SystemConfig config = defaultConfig();
    SyntheticGenerator gen(*profile,
                           config.generatorParamsFor(*profile),
                           config.seed);
    const std::uint64_t written =
        recordTrace(gen, argv[3], count, format);
    if (written == 0) {
        std::cerr << "failed to write " << argv[3] << "\n";
        return EXIT_FAILURE;
    }
    std::cout << "wrote " << written << " records to " << argv[3]
              << " ("
              << (format == TraceFormat::Packed ? "packed" : "raw")
              << ")\n";
    return EXIT_SUCCESS;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "usage: trace_tools info <trace.trc>\n";
        return EXIT_FAILURE;
    }
    TraceReader reader(argv[2]);
    std::cout << argv[2] << ":\n  format       "
              << (reader.format() == TraceFormat::Packed ? "packed (v2)"
                                                         : "raw (v1)")
              << (reader.zeroCopy() ? ", mmap" : ", loaded") << "\n";
    std::set<PageAddr> pages;
    std::set<InstAddr> pcs;
    std::uint64_t writes = 0, dependent = 0, instructions = 0;
    for (std::uint64_t i = 0; i < reader.size(); ++i) {
        const Access a = reader.next();
        pages.insert(pageOf(a.vaddr));
        pcs.insert(a.pc);
        writes += a.isWrite;
        dependent += a.dependsOnPrev;
        instructions += a.gapInstructions;
    }
    std::cout << "  records      " << reader.size()
              << "\n  instructions " << instructions
              << "\n  footprint    " << pages.size() << " pages ("
              << (pages.size() * kPageBytes >> 10) << " KB)"
              << "\n  distinct PCs " << pcs.size() << "\n  writes       "
              << writes << " (" << 100.0 * writes / reader.size()
              << "%)\n  dependent    " << dependent << " ("
              << 100.0 * dependent / reader.size() << "%)\n";
    return EXIT_SUCCESS;
}

/** Any --list-orgs name (case-insensitive); CAMEO otherwise. */
OrgKind
parseOrg(const std::string &s)
{
    return orgKindFromName(s).value_or(OrgKind::Cameo);
}

int
cmdReplay(int argc, char **argv)
{
    if (argc < 4) {
        std::cerr << "usage: trace_tools replay <trace.trc> <org> "
                     "[accessesPerCore]\n";
        return EXIT_FAILURE;
    }
    const std::string path = argv[2];
    SystemConfig config = defaultConfig();
    if (argc > 4)
        config.accessesPerCore = std::strtoull(argv[4], nullptr, 10);

    // Every core replays the same file, staggered so they do not move
    // in lockstep (rate-mode methodology).
    config.sourceFactory =
        [&path](std::uint32_t core, const WorkloadProfile &,
                const GeneratorParams &, std::uint64_t)
        -> std::unique_ptr<AccessSource> {
        auto reader = std::make_unique<TraceReader>(path);
        const std::uint64_t stagger =
            reader->size() / 8 * (core % 8);
        // O(1) for raw traces, checkpoint-bounded for packed ones —
        // no per-record discard loop.
        reader->skip(stagger);
        return reader;
    };

    // The profile only labels the run when replaying.
    const WorkloadProfile *profile = findWorkload("milc");
    const RunResult base =
        runWorkload(config, OrgKind::Baseline, *profile);
    const RunResult r = runWorkload(config, parseOrg(argv[3]), *profile);
    std::cout << "replayed " << path << " on " << r.orgName
              << ": execTime=" << r.execTime << " cycles, speedup vs "
              << "baseline=" << static_cast<double>(base.execTime) /
                                    static_cast<double>(r.execTime)
              << ", MPKI=" << r.mpki() << "\n";
    return EXIT_SUCCESS;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string cmd = argc > 1 ? argv[1] : "";
    try {
        if (cmd == "record")
            return cmdRecord(argc, argv);
        if (cmd == "info")
            return cmdInfo(argc, argv);
        if (cmd == "replay")
            return cmdReplay(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << "error: " << e.what() << "\n";
        return EXIT_FAILURE;
    }
    std::cerr << "usage: trace_tools {record|info|replay} ...\n";
    return EXIT_FAILURE;
}
