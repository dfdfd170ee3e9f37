#include "core/fault_study.hpp"

#include <string>

#include "core/executor.hpp"
#include "net/topology.hpp"
#include "util/logging.hpp"

namespace meshslice {

const FaultStudyEntry *
FaultStudyResult::find(Algorithm algo) const
{
    for (const FaultStudyEntry &e : entries)
        if (e.algo == algo)
            return &e;
    return nullptr;
}

GemmRunResult
runGemmUnderScenario(const ChipConfig &cfg, Algorithm algo,
                     const Gemm2DSpec &spec, const FaultScenario *scenario,
                     StatsRegistry *stats, ExplainRecord *explain)
{
    const bool is_1d =
        algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp;
    Cluster cluster(cfg, spec.chips());
    if (stats != nullptr)
        cluster.stats().enable(true);
    if (explain != nullptr)
        cluster.enableProfiler(true);
    GemmRunResult result;
    if (is_1d) {
        RingNetwork ring(cluster);
        FaultInjector injector(cluster.sim(), cluster.net(),
                               scenario ? *scenario : FaultScenario{});
        if (scenario) {
            injector.arm();
            cluster.attachFaults(&injector);
        }
        result = runGemm1D(ring, to1DSpec(spec, algo), algo);
    } else {
        TorusMesh mesh(cluster, spec.rows, spec.cols);
        FaultInjector injector(cluster.sim(), cluster.net(),
                               scenario ? *scenario : FaultScenario{});
        if (scenario) {
            injector.arm();
            cluster.attachFaults(&injector);
        }
        GemmExecutor executor(mesh);
        result = executor.run(algo, spec);
    }
    if (explain != nullptr)
        *explain = explainGraph(cluster.profiler().nodes());
    if (stats != nullptr) {
        cluster.collectResourceStats(cluster.stats());
        stats->merge(cluster.stats().snapshot());
    }
    return result;
}

FaultStudyResult
runFaultStudy(const ChipConfig &cfg, const Gemm2DSpec &spec,
              const FaultScenario &scenario,
              const std::vector<Algorithm> &algos, StatsRegistry *stats)
{
    FaultStudyResult result;
    for (Algorithm algo : algos) {
        if (algo == Algorithm::kCannon && spec.rows != spec.cols)
            continue; // Cannon needs a square mesh
        FaultStudyEntry entry;
        entry.algo = algo;
        entry.nominal = runGemmUnderScenario(cfg, algo, spec, nullptr);
        entry.faulted = runGemmUnderScenario(cfg, algo, spec, &scenario);
        entry.slowdown = entry.nominal.time > 0.0
                             ? entry.faulted.time / entry.nominal.time
                             : 1.0;
        entry.exposedCommDelta =
            entry.faulted.exposedComm - entry.nominal.exposedComm;
        entry.overlapDelta = entry.faulted.overlapEfficiency() -
                             entry.nominal.overlapEfficiency();
        if (stats && stats->enabled()) {
            const std::string base =
                std::string("fault_study/") + algorithmName(algo);
            stats->set(base + "/nominal_s", entry.nominal.time);
            stats->set(base + "/faulted_s", entry.faulted.time);
            stats->set(base + "/slowdown", entry.slowdown);
            stats->set(base + "/exposed_comm_nominal_s",
                       entry.nominal.exposedComm);
            stats->set(base + "/exposed_comm_faulted_s",
                       entry.faulted.exposedComm);
            stats->set(base + "/exposed_comm_delta_s",
                       entry.exposedCommDelta);
            stats->set(base + "/overlap_nominal",
                       entry.nominal.overlapEfficiency());
            stats->set(base + "/overlap_faulted",
                       entry.faulted.overlapEfficiency());
            stats->set(base + "/overlap_delta", entry.overlapDelta);
        }
        result.entries.push_back(entry);
    }
    return result;
}

} // namespace meshslice
