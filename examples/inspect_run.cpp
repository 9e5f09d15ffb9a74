/**
 * @file
 * inspect_run: run one (organization, workload) pair and dump the full
 * statistics registry — the debugging workhorse for calibrating the
 * simulator. Also prints derived quantities (hit rates, average
 * latencies, bandwidth) that the registry alone does not show.
 */

#include <iostream>
#include <string>

#include "system/system.hh"
#include "trace/workloads.hh"

namespace
{

/** Any --list-orgs name (case-insensitive); CAMEO variants otherwise. */
cameo::OrgKind
parseOrg(const std::string &s)
{
    return cameo::orgKindFromName(s).value_or(cameo::OrgKind::Cameo);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cameo;

    const std::string org_name = argc > 1 ? argv[1] : "cameo";
    const std::string workload_name = argc > 2 ? argv[2] : "milc";
    const WorkloadProfile *profile = findWorkload(workload_name);
    if (profile == nullptr) {
        std::cerr << "unknown workload '" << workload_name << "'\n";
        return 1;
    }

    SystemConfig config = defaultConfig();
    if (argc > 3)
        config.accessesPerCore = std::strtoull(argv[3], nullptr, 10);

    // CAMEO variants: "cameo-sam", "cameo-perfect", "cameo-ideal",
    // "cameo-embedded" select predictor / LLT design.
    if (org_name == "cameo-sam")
        config.predictorKind = PredictorKind::Sam;
    else if (org_name == "cameo-perfect")
        config.predictorKind = PredictorKind::Perfect;
    else if (org_name == "cameo-ideal")
        config.lltKind = LltKind::Ideal;
    else if (org_name == "cameo-embedded")
        config.lltKind = LltKind::Embedded;

    System system(config, parseOrg(org_name), *profile);
    const RunResult r = system.run();

    std::cout << "org=" << r.orgName << " workload=" << r.workload
              << " execTime=" << r.execTime << " cycles\n"
              << "accesses=" << r.accesses << " instr=" << r.instructions
              << " MPKI=" << r.mpki() << "\n"
              << "cycles/access="
              << static_cast<double>(r.execTime) *
                     config.numCores / static_cast<double>(r.accesses)
              << " (per-core trace position)\n"
              << "stackedBytes=" << r.stackedBytes
              << " offchipBytes=" << r.offchipBytes
              << " storageBytes=" << r.storageBytes << "\n"
              << "majorFaults=" << r.majorFaults
              << " minorFaults=" << r.minorFaults << "\n";
    if (r.servicedStacked + r.servicedOffchip > 0) {
        std::cout << "cameo stackedServiceFraction="
                  << r.stackedServiceFraction()
                  << " llpAccuracy=" << r.llpAccuracy << " cases=[";
        for (int i = 0; i < 5; ++i)
            std::cout << r.llpCases[i] << (i < 4 ? "," : "]\n");
    }
    std::cout << "\n--- full registry ---\n";
    system.stats().dump(std::cout);

    // Latency histograms (when the distribution has buckets).
    for (const Distribution *d : system.stats().distributions()) {
        if (d->buckets().empty() || d->count() == 0)
            continue;
        std::cout << "histogram " << d->name() << " (bucket "
                  << d->bucketWidth() << "):";
        for (std::size_t i = 0; i < d->buckets().size(); ++i) {
            if (d->buckets()[i])
                std::cout << " [" << i * d->bucketWidth() << "]="
                          << d->buckets()[i];
        }
        std::cout << " overflow=" << d->overflow() << "\n";
    }
    return 0;
}
