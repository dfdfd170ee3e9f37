/**
 * @file
 * Golden simulated times of every timed GeMM schedule.
 *
 * Each case runs one schedule (a 2D algorithm and dataflow on 4x4 and
 * 2x3 at S=2, the 1D rings, 2.5D and MeshSlice+DP) under the default
 * `ChipConfig` and with each overlap/ICI switch turned off, and prints
 * the time and both directions' `CommStats::total` in hex-float. The
 * committed table `golden/schedule_times.txt` pins them bit for bit,
 * so a refactor of the schedule builders or the simulator must
 * reproduce every one exactly. To inspect a deliberate change, set
 * `MESHSLICE_GOLDEN_OUT=<path>` to write the computed table there.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dp3d.hpp"
#include "core/executor.hpp"

namespace meshslice {
namespace {

std::string
line(const std::string &name, Time time, const CommStats &a,
     const CommStats &b)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, " %a %a %a", time, a.total, b.total);
    return name + buf;
}

/** One configuration's cases, one table line each. */
std::vector<std::string>
casesFor(const std::string &cfg_name, const ChipConfig &cfg)
{
    std::vector<std::string> out;
    const int meshes[][2] = {{4, 4}, {2, 3}};
    for (const auto &mesh : meshes) {
        for (Algorithm algo : all2DAlgorithms()) {
            if (algo == Algorithm::kCannon && mesh[0] != mesh[1])
                continue;
            for (Dataflow df : {Dataflow::kOS, Dataflow::kLS, Dataflow::kRS}) {
                if (algo == Algorithm::kOneSided && df != Dataflow::kOS)
                    continue;
                Gemm2DSpec spec;
                spec.m = 6144;
                spec.k = 3072;
                spec.n = 1536;
                spec.dataflow = df;
                spec.rows = mesh[0];
                spec.cols = mesh[1];
                spec.sliceCount = 2;
                Cluster cluster(cfg, spec.chips());
                TorusMesh torus(cluster, spec.rows, spec.cols);
                const GemmRunResult r = GemmExecutor(torus).run(algo, spec);
                out.push_back(line(cfg_name + " " + algorithmName(algo) +
                                       " " + spec.str(),
                                   r.time, r.horizontal, r.vertical));
            }
        }
    }
    for (bool reduce : {false, true}) {
        Gemm1DSpec spec;
        spec.m = 4096;
        spec.k = 2048;
        spec.n = 4096;
        spec.chips = 8;
        spec.sliceCount = 2;
        spec.commBytes = spec.m * spec.k * 2;
        spec.commIsReduce = reduce;
        spec.local = GemmWork{spec.m, spec.k, spec.n / spec.chips};
        Cluster cluster(cfg, spec.chips);
        RingNetwork ring(cluster);
        const GemmRunResult r = runGemm1D(ring, spec);
        out.push_back(line(cfg_name + (reduce ? " 1D-RdS" : " 1D-AG"),
                           r.time, r.horizontal, r.vertical));
    }
    {
        Cluster cluster(cfg, 32);
        Torus3D torus(cluster, 4, 4, 2);
        const Gemm3DResult r = run25DGemm(torus, 4096, 4096, 2048);
        out.push_back(line(cfg_name + " 2.5D 4x4x2", r.time, r.intraLayer,
                           r.interLayer));
    }
    {
        Cluster cluster(cfg, 8);
        Torus3D torus(cluster, 2, 2, 2);
        Gemm2DSpec spec;
        spec.m = 4096;
        spec.k = 2048;
        spec.n = 2048;
        spec.rows = 2;
        spec.cols = 2;
        spec.sliceCount = 2;
        const Gemm3DResult r =
            runMeshSliceDP(torus, Algorithm::kMeshSlice, spec, 8 << 20);
        out.push_back(line(cfg_name + " MeshSlice+DP 2x2x2", r.time,
                           r.intraLayer, r.interLayer));
    }
    return out;
}

TEST(GoldenSchedules, SimulatedTimesMatchTheCommittedTable)
{
    std::vector<std::pair<std::string, ChipConfig>> configs;
    configs.emplace_back("default", tpuV4Config());
    configs.emplace_back("no-collective-overlap", tpuV4Config());
    configs.back().second.allowCollectiveOverlap = false;
    configs.emplace_back("no-sendrecv-overlap", tpuV4Config());
    configs.back().second.allowSendRecvOverlap = false;
    configs.emplace_back("unidirectional-ici", tpuV4Config());
    configs.back().second.bidirectionalIci = false;

    std::vector<std::string> actual;
    for (const auto &[name, cfg] : configs)
        for (std::string &l : casesFor(name, cfg))
            actual.push_back(std::move(l));

    if (const char *out = std::getenv("MESHSLICE_GOLDEN_OUT")) {
        std::ofstream file(out);
        for (const std::string &l : actual)
            file << l << "\n";
    }

    std::ifstream table(MESHSLICE_GOLDEN_DIR "/schedule_times.txt");
    ASSERT_TRUE(table.good()) << "missing " MESHSLICE_GOLDEN_DIR
                                 "/schedule_times.txt";
    std::vector<std::string> expected;
    for (std::string l; std::getline(table, l);)
        expected.push_back(l);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]);
}

} // namespace
} // namespace meshslice
