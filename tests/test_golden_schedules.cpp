/**
 * @file
 * Golden tables of the timed and the functional GeMM runtimes.
 *
 * `golden/schedule_times.txt`: each case runs one timed schedule (a 2D
 * algorithm and dataflow on 4x4 and 2x3 at S=2, the 1D rings, 2.5D and
 * MeshSlice+DP) under the default `ChipConfig` and with each
 * overlap/ICI switch turned off, and prints the time and both
 * directions' `CommStats::total` in hex-float. A last block runs
 * MeshSlice (OS, LS, RS) and Collective OS at S=8 on the 32x4 mesh a
 * 256-chip GPT-3 plan picks, under the default `ChipConfig`: MeshSlice
 * RS there picks ~28 oversubscribed resources per rate recompute,
 * where the 4x4 and 2x3 cases average under one pick per recompute.
 *
 * `golden/functional_outputs.txt`: each case runs one functional GeMM
 * (a 2D algorithm and dataflow on 4x4 and 2x3 at S=1 and S=2, 2.5D at
 * depth 1 and 2, the 1D baselines) on seeded random inputs and prints
 * the FNV-1a digest of the gathered output's float bits.
 *
 * `golden/elastic_runs.txt`: each case runs one `runElastic` training
 * run — every algorithm with no scenario, under jitter plus a link
 * window plus a straggler, and with a chip kill inside a step; a kill
 * inside a checkpoint; Cannon re-planning onto MeshSlice; OneSided
 * absorbing a kill; a pipeline body under a kill-free scenario; one
 * kill case with the profiler on — and prints the wall, goodput and
 * full-mesh step time in hex-float, the FNV-1a digest of the phase
 * trace plus the stats JSON, and the seven critical-path seconds.
 *
 * The committed tables pin the runtimes bit for bit, so a refactor of
 * the schedule builders, the simulator, the functional algorithms or
 * the elastic runtime must reproduce every line exactly. To inspect a
 * deliberate change, set `MESHSLICE_GOLDEN_OUT=<dir>` to write the
 * computed tables there under their committed names.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dp3d.hpp"
#include "core/executor.hpp"
#include "core/functional.hpp"
#include "run/elastic.hpp"
#include "util/fingerprint.hpp"

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
            if (!supportsMesh(algo, mesh[0], mesh[1]))
                continue;
            for (Dataflow df : {Dataflow::kOS, Dataflow::kLS, Dataflow::kRS}) {
                if (!supportsDataflow(algo, df))
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

/** The default configuration's cases on the 32x4 mesh. */
std::vector<std::string>
largeMeshCases(const ChipConfig &cfg)
{
    std::vector<std::string> out;
    const std::pair<Algorithm, Dataflow> cases[] = {
        {Algorithm::kMeshSlice, Dataflow::kOS},
        {Algorithm::kMeshSlice, Dataflow::kLS},
        {Algorithm::kMeshSlice, Dataflow::kRS},
        {Algorithm::kCollective, Dataflow::kOS}};
    for (const auto &[algo, df] : cases) {
        Gemm2DSpec spec;
        spec.m = 65536;
        spec.k = 12288;
        spec.n = 12288;
        spec.dataflow = df;
        spec.rows = 32;
        spec.cols = 4;
        spec.sliceCount = 8;
        Cluster cluster(cfg, spec.chips());
        TorusMesh torus(cluster, spec.rows, spec.cols);
        const GemmRunResult r = GemmExecutor(torus).run(algo, spec);
        out.push_back(line("default " + std::string(algorithmName(algo)) +
                               " " + spec.str(),
                           r.time, r.horizontal, r.vertical));
    }
    return out;
}

/**
 * Compare @p actual with the committed table `golden/<file>` line by
 * line, after writing it to `$MESHSLICE_GOLDEN_OUT/<file>` if set.
 */
void
expectMatchesTable(const std::string &file,
                   const std::vector<std::string> &actual)
{
    if (const char *dir = std::getenv("MESHSLICE_GOLDEN_OUT")) {
        std::ofstream out(std::string(dir) + "/" + file);
        for (const std::string &l : actual)
            out << l << "\n";
    }

    std::ifstream table(std::string(MESHSLICE_GOLDEN_DIR "/") + file);
    ASSERT_TRUE(table.good()) << "missing " MESHSLICE_GOLDEN_DIR "/"
                              << file;
    std::vector<std::string> expected;
    for (std::string l; std::getline(table, l);)
        expected.push_back(l);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < actual.size(); ++i)
        EXPECT_EQ(actual[i], expected[i]);
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
    for (std::string &l : largeMeshCases(tpuV4Config()))
        actual.push_back(std::move(l));
    expectMatchesTable("schedule_times.txt", actual);
}

/** FNV-1a digest of @p m's float bits. */
std::string
digestOf(const Matrix &m)
{
    return fnv1a64Hex(std::string_view(
        reinterpret_cast<const char *>(m.data()),
        static_cast<size_t>(m.rows() * m.cols()) * sizeof(float)));
}

TEST(GoldenFunctional, OutputsMatchTheCommittedTable)
{
    // Distinct dimensions, each a multiple of 48, so every sliced
    // extent divides on both meshes at S=2, B=2 and every SUMMA panel
    // count lcm(Pr, Pc) divides.
    const std::int64_t m = 144, k = 96, n = 48;
    const int block = 2;
    std::vector<std::string> actual;
    const int meshes[][2] = {{4, 4}, {2, 3}};
    for (const auto &mesh : meshes) {
        const MeshShape shape{mesh[0], mesh[1]};
        for (Algorithm algo : all2DAlgorithms()) {
            if (!supportsMesh(algo, mesh[0], mesh[1]))
                continue;
            for (Dataflow df : {Dataflow::kOS, Dataflow::kLS, Dataflow::kRS}) {
                if (!supportsDataflow(algo, df))
                    continue;
                // OS: C = A B; LS: C = A B^T; RS: C = A^T B.
                const Matrix a = df == Dataflow::kRS
                                     ? Matrix::random(k, m, 1)
                                     : Matrix::random(m, k, 1);
                const Matrix b = df == Dataflow::kLS
                                     ? Matrix::random(n, k, 2)
                                     : Matrix::random(k, n, 2);
                for (int s : {1, 2}) {
                    Gemm2DSpec spec;
                    spec.m = m;
                    spec.k = k;
                    spec.n = n;
                    spec.dataflow = df;
                    spec.rows = mesh[0];
                    spec.cols = mesh[1];
                    spec.sliceCount = s;
                    const Matrix c =
                        funcGemm(algo, df, DistMatrix::scatter(a, shape),
                                 DistMatrix::scatter(b, shape), s, block)
                            .gather();
                    actual.push_back(std::string(algorithmName(algo)) +
                                     " " + spec.str() + " " +
                                     digestOf(c));
                }
            }
        }
    }
    const MeshShape square{4, 4};
    const Matrix a = Matrix::random(m, k, 1);
    const Matrix b = Matrix::random(k, n, 2);
    for (int depth : {1, 2})
        actual.push_back(
            "2.5D 4x4x" + std::to_string(depth) + " " +
            digestOf(func25DGemm(DistMatrix::scatter(a, square),
                                 DistMatrix::scatter(b, square), depth)
                         .gather()));
    // The 1D baselines: Collective OS on a 1 x 4 (1D TP) and a 4 x 1
    // (FSDP) ring.
    for (const auto &[name, shape] :
         {std::pair{"1DTP 4 ", MeshShape{1, 4}},
          std::pair{"FSDP 4 ", MeshShape{4, 1}}})
        actual.push_back(name +
                         digestOf(funcGemm(Algorithm::kCollective,
                                           Dataflow::kOS,
                                           DistMatrix::scatter(a, shape),
                                           DistMatrix::scatter(b, shape),
                                           1, 1)
                                      .gather()));
    expectMatchesTable("functional_outputs.txt", actual);
}

/** One table line: the run's scalars, trace digest and path seconds. */
std::string
elasticLine(const std::string &name, const ElasticRunResult &r)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, " %a %a %a ", r.wall, r.goodput,
                  r.stepTimeFullMesh);
    std::string out = name + buf + fnv1a64Hex(elasticTraceJson(r) +
                                              r.statsJson);
    for (double s : r.pathSeconds) {
        std::snprintf(buf, sizeof buf, " %a", s);
        out += buf;
    }
    return out;
}

/** The first phase a fail-stop consumed; fails the test if none. */
ElasticPhase
abortedPhase(const ElasticRunResult &r)
{
    for (const ElasticPhase &ph : r.phases)
        if (!ph.committed)
            return ph;
    ADD_FAILURE() << "no phase was aborted";
    return {};
}

/** 4 steps of a 384x768x192 GeMM at S = 2 with functional state and
 *  a checkpoint every two steps: on a 2x2 torus, or a 4-chip ring for
 *  1D. Every dimension divides every survivor mesh axis (1 to 4). */
ElasticRunConfig
goldenRun(Algorithm algo, const ChipConfig &cfg)
{
    ElasticRunConfig run;
    run.algo = algo;
    run.spec.m = 384;
    run.spec.k = 768;
    run.spec.n = 192;
    const bool is_1d =
        algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp;
    run.spec.rows = is_1d ? 4 : 2;
    run.spec.cols = is_1d ? 1 : 2;
    run.spec.sliceCount = 2;
    run.steps = 4;
    run.functionalState = true;
    run.checkpointBytesPerChip = 1 << 20;
    run.checkpointTargetBandwidth = 1e10;
    run.restartTime = 0.01;
    run.checkpointInterval = 1e9; // placeholder for the probe
    run.checkpointInterval =
        1.5 * runElastic(cfg, run).stepTimeFullMesh;
    return run;
}

/** A kill of chip 1 halfway through @p ph of a fault-free run. */
void
killInside(ElasticRunConfig &run, const ElasticPhase &ph, Time latency)
{
    run.haveScenario = true;
    run.scenario = FaultScenario{};
    run.scenario.seed = 11;
    run.scenario.detectionLatency = latency;
    run.scenario.kills.push_back(
        KillFault{"chip1.", ph.start + 0.5 * ph.span});
}

/** The phase of @p kind and @p index of @p r. */
ElasticPhase
phaseOf(const ElasticRunResult &r, ElasticPhase::Kind kind, int index)
{
    for (const ElasticPhase &ph : r.phases)
        if (ph.kind == kind && ph.index == index)
            return ph;
    ADD_FAILURE() << "no phase " << elasticPhaseKindName(kind) << " "
                  << index;
    return {};
}

TEST(GoldenElastic, RunsMatchTheCommittedTable)
{
    const ChipConfig cfg = tpuV4Config();
    std::vector<std::string> actual;
    for (Algorithm algo : allAlgorithms()) {
        const std::string name = algorithmName(algo);
        const bool is_1d =
            algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp;
        const ElasticRunConfig base = goldenRun(algo, cfg);
        const ElasticRunResult clean = runElastic(cfg, base);
        actual.push_back(elasticLine(name + " none", clean));
        const Time t_step = clean.stepTimeFullMesh;

        ElasticRunConfig faulty = base;
        faulty.haveScenario = true;
        faulty.scenario.seed = 5;
        faulty.scenario.maxLaunchJitter = 1e-3 * t_step;
        faulty.scenario.faults.push_back(CapacityFault{
            is_1d ? "link.CW" : "link.E", 0.5, 0.5 * t_step, 2.0 * t_step});
        faulty.scenario.stragglers.push_back(
            StragglerFault{0, 0.5, 0.75, 1.5 * t_step, t_step});
        actual.push_back(
            elasticLine(name + " faults", runElastic(cfg, faulty)));

        ElasticRunConfig killed = base;
        killInside(killed,
                   phaseOf(clean, ElasticPhase::Kind::kStep, 2),
                   0.25 * t_step);
        const ElasticRunResult r = runElastic(cfg, killed);
        EXPECT_TRUE(r.recovered) << name;
        EXPECT_TRUE(r.functionalOk) << name;
        EXPECT_EQ(static_cast<int>(abortedPhase(r).kind),
                  static_cast<int>(ElasticPhase::Kind::kStep))
            << name;
        actual.push_back(elasticLine(name + " kill-step", r));

        if (algo == Algorithm::kMeshSlice) {
            killInside(killed,
                       phaseOf(clean, ElasticPhase::Kind::kCheckpoint, 0),
                       0.25 * t_step);
            const ElasticRunResult c = runElastic(cfg, killed);
            EXPECT_TRUE(c.recovered);
            EXPECT_TRUE(c.functionalOk);
            EXPECT_EQ(static_cast<int>(abortedPhase(c).kind),
                      static_cast<int>(ElasticPhase::Kind::kCheckpoint));
            actual.push_back(elasticLine(name + " kill-checkpoint", c));

            killInside(killed,
                       phaseOf(clean, ElasticPhase::Kind::kStep, 1),
                       0.25 * t_step);
            killed.profile = true;
            const ElasticRunResult p = runElastic(cfg, killed);
            EXPECT_TRUE(p.recovered);
            EXPECT_GT(p.pathSeconds[static_cast<int>(
                          SpanCategory::kRecovery)],
                      0.0);
            actual.push_back(elasticLine(name + " kill-step profile", p));
        }
    }

    // Cannon re-plans onto MeshSlice, and OneSided absorbs the kill,
    // with no checkpoint taken: the run rolls back to step 0.
    for (Algorithm algo : {Algorithm::kCannon, Algorithm::kOneSided}) {
        ElasticRunConfig run = goldenRun(algo, cfg);
        run.steps = 3;
        run.checkpointInterval = 1e9;
        const Time t_step = runElastic(cfg, run).stepTimeFullMesh;
        run.haveScenario = true;
        run.scenario.seed = 17;
        run.scenario.detectionLatency = 0.5 * t_step;
        run.scenario.kills.push_back(KillFault{"chip2.", 1.4 * t_step});
        const ElasticRunResult r = runElastic(cfg, run);
        EXPECT_TRUE(r.recovered);
        EXPECT_TRUE(r.functionalOk);
        EXPECT_EQ(static_cast<int>(r.finalAlgo),
                  static_cast<int>(algo == Algorithm::kCannon
                                       ? Algorithm::kMeshSlice
                                       : algo));
        actual.push_back(elasticLine(std::string(algorithmName(algo)) +
                                         (algo == Algorithm::kCannon
                                              ? " replan"
                                              : " absorb"),
                                     r));
    }

    // A two-stage pipeline body under jitter and boundary-link windows.
    {
        ElasticRunConfig run;
        run.spec.m = run.spec.k = run.spec.n = 384;
        run.spec.rows = run.spec.cols = 2;
        run.steps = 3;
        run.pipeline.enabled = true;
        run.pipeline.stages = 2;
        run.pipeline.exec.microBatches = 3;
        run.pipeline.exec.fwdTime = 2e-3;
        run.pipeline.exec.bwdTime = 4e-3;
        run.pipeline.exec.boundaryBytes = 1 << 20;
        run.checkpointBytesPerChip = 1 << 20;
        run.checkpointTargetBandwidth = 1e10;
        run.checkpointInterval = 1e-6;
        const Time t_step = runElastic(cfg, run).stepTimeFullMesh;
        run.haveScenario = true;
        run.scenario.seed = 23;
        run.scenario.maxLaunchJitter = 1e-3 * t_step;
        run.scenario.faults.push_back(
            CapacityFault{"link.pp+", 0.25, 0.5 * t_step, t_step});
        run.scenario.faults.push_back(
            CapacityFault{"link.pp-", 0.5, 1.5 * t_step, t_step});
        const ElasticRunResult r = runElastic(cfg, run);
        EXPECT_FALSE(r.recovered);
        EXPECT_EQ(r.checkpoints, run.steps - 1);
        actual.push_back(elasticLine("pipeline faults", r));
    }
    expectMatchesTable("elastic_runs.txt", actual);
}

} // namespace
} // namespace meshslice
