/**
 * @file
 * Tests of the one-sided communication layer and the OneSided
 * executor: functional bit-identity with MeshSlice's sliced reduction
 * (and closeness to the dense reference), timed fault-free determinism
 * and slice-count sensitivity, lazy NIC-queue registration, per-get
 * retry/write-off recovery under a mid-GeMM kill (including the
 * recovery-category profiler spans over the detour), straggler
 * locality versus the collective executors, the one-retry budget
 * death test, a seeded fault-scenario fuzzer (byte-identical JSON
 * round-trip + bounded simulation, never a hang), and the
 * overlapping-capacity-window x detour-ring bandwidth interaction.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/fault_study.hpp"
#include "core/recovery_study.hpp"
#include "core/functional.hpp"
#include "net/onesided.hpp"
#include "net/topology.hpp"
#include "pipeline/pipeline_exec.hpp"
#include "sim/fault.hpp"

namespace meshslice {
namespace {

constexpr double kTol = 2e-3; // float accumulation-order slack

/** Round numbers for hand-checkable cost arithmetic (matches
 *  test_collectives.cpp / test_recovery.cpp). */
ChipConfig
simpleConfig()
{
    ChipConfig cfg;
    cfg.iciLinkBandwidth = 100.0; // 100 B/s
    cfg.hbmBandwidth = 1e9;       // never the bottleneck here
    cfg.syncLatency = 1.0;        // 1 s
    cfg.launchOverhead = 10.0;    // 10 s
    cfg.bidirectionalIci = false;
    return cfg;
}

bool
hasStat(const StatsRegistry &stats, const std::string &name)
{
    for (const StatSnapshot &s : stats.snapshot())
        if (s.name == name)
            return true;
    return false;
}

double
statValue(const StatsRegistry &stats, const std::string &name)
{
    for (const StatSnapshot &s : stats.snapshot())
        if (s.name == name)
            return s.value;
    return 0.0;
}

Gemm2DSpec
osSpec(int rows = 4, int cols = 4, int s = 4)
{
    Gemm2DSpec spec;
    spec.m = 16384;
    spec.k = 4096;
    spec.n = 8192;
    spec.dataflow = Dataflow::kOS;
    spec.rows = rows;
    spec.cols = cols;
    spec.sliceCount = s;
    return spec;
}

// ---------------------------------------------------------------------
// Functional layer.

TEST(OneSidedFunctional, MatchesDenseReference)
{
    const MeshShape mesh{4, 4};
    const Matrix a = Matrix::random(96, 64, 31);
    const Matrix b = Matrix::random(64, 80, 32);
    const Matrix ref = Matrix::gemm(a, b);
    const DistMatrix c = funcGemm(Algorithm::kOneSided, Dataflow::kOS,
                                  DistMatrix::scatter(a, mesh),
                                  DistMatrix::scatter(b, mesh),
                                  /*s_count=*/4, /*block=*/2);
    EXPECT_TRUE(c.gather().allClose(ref, kTol))
        << "max diff " << c.gather().maxAbsDiff(ref);
}

TEST(OneSidedFunctional, BitIdenticalToMeshSlice)
{
    // Per C shard the accumulation order over slices is the same as
    // MeshSlice's — the per-tile pull is a reordering of *tiles*, not
    // of any tile's additions — so the result is bit-exact, not just
    // close.
    const MeshShape mesh{2, 4};
    const DistMatrix a =
        DistMatrix::scatter(Matrix::random(64, 64, 41), mesh);
    const DistMatrix b =
        DistMatrix::scatter(Matrix::random(64, 96, 42), mesh);
    for (const int s : {1, 2, 4}) {
        const DistMatrix os =
            funcGemm(Algorithm::kOneSided, Dataflow::kOS, a, b, s, 2);
        const DistMatrix ms =
            funcGemm(Algorithm::kMeshSlice, Dataflow::kOS, a, b, s, 2);
        EXPECT_EQ(os.gather().maxAbsDiff(ms.gather()), 0.0) << "S=" << s;
    }
}

// ---------------------------------------------------------------------
// Timed executor, fault-free.

TEST(OneSidedExecutor, FaultFreeRunIsDeterministic)
{
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = osSpec();
    const GemmRunResult r1 =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, nullptr);
    const GemmRunResult r2 =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, nullptr);
    EXPECT_GT(r1.time, 0.0);
    EXPECT_EQ(r1.time, r2.time);
    EXPECT_EQ(r1.horizontal.total, r2.horizontal.total);
    EXPECT_EQ(r1.vertical.total, r2.vertical.total);
}

TEST(OneSidedExecutor, HonorsSliceCountUnlikeTheCollectiveBaselines)
{
    // The executor must not reset S to 1 the way the pure-collective
    // baselines do: more slices = finer get/compute pipelining, which
    // changes (and here improves) the schedule.
    const ChipConfig cfg = tpuV4Config();
    const GemmRunResult s1 =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, osSpec(4, 4, 1),
                             nullptr);
    const GemmRunResult s4 =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, osSpec(4, 4, 4),
                             nullptr);
    EXPECT_NE(s1.time, s4.time);
    EXPECT_LT(s4.time, s1.time * 1.05);
}

TEST(OneSidedExecutor, FaultFreeParityWithSlicedCollectives)
{
    // Brock & Golin's headline: one-sided slicing roughly matches the
    // sliced collectives when nothing is broken. At a 4x4 mesh the
    // shortest-path gets carry 4/3 of the bidirectional ring AG's
    // per-link bytes but pay zero sync steps, so the times agree
    // within a model-error band (OneSided buys its fault tolerance
    // with that extra per-link traffic, not with a blowup).
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = osSpec(4, 4, 4);
    const GemmRunResult os =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, nullptr);
    const GemmRunResult ms =
        runGemmUnderScenario(cfg, Algorithm::kMeshSlice, spec, nullptr);
    EXPECT_GT(os.time, 0.0);
    EXPECT_LT(std::abs(os.time - ms.time), 0.35 * ms.time)
        << "OneSided " << os.time << " s vs MeshSlice " << ms.time;
}

TEST(OneSidedExecutor, NicQueueIsRegisteredLazily)
{
    // Collective-only runs must not see NIC resources (their stats
    // dumps stay byte-stable); a OneSided run registers one per chip.
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = osSpec(2, 2, 2);
    StatsRegistry coll_stats;
    coll_stats.enable(true);
    runGemmUnderScenario(cfg, Algorithm::kCollective, spec, nullptr,
                         &coll_stats);
    StatsRegistry os_stats;
    os_stats.enable(true);
    runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, nullptr,
                         &os_stats);
    EXPECT_FALSE(hasStat(coll_stats, "chip0/nic/capacity"));
    EXPECT_TRUE(hasStat(os_stats, "chip0/nic/capacity"));
    EXPECT_GT(statValue(os_stats, "onesided/get/count"), 0.0);
    EXPECT_EQ(statValue(os_stats, "onesided/get/retry"), 0.0);
}

// ---------------------------------------------------------------------
// Mid-GeMM kill: per-get retry, no global abort.

FaultScenario
killScenario(const std::string &resource, Time at)
{
    FaultScenario s;
    s.kills.push_back(KillFault{resource, at});
    s.detectionLatency = 0.5;
    return s;
}

TEST(OneSidedRecovery, MidGemmKillCompletesViaPerGetRetry)
{
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = osSpec(4, 4, 2);
    const GemmRunResult nominal =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, nullptr);
    const FaultScenario kill = killScenario("chip5.hbm", 1e-4);
    StatsRegistry stats;
    stats.enable(true);
    const GemmRunResult faulted = runGemmUnderScenario(
        cfg, Algorithm::kOneSided, spec, &kill, &stats);
    // Completed — no collective-wide abort — but paid at least the
    // detection latency on the tiles that read from the corpse.
    EXPECT_GT(faulted.time, nominal.time + kill.detectionLatency * 0.5);
    // Gets *from* the dead chip retried over the detour; gets *into*
    // it were written off; the corpse's own compute was written off.
    EXPECT_GT(statValue(stats, "onesided/get/retry"), 0.0);
    EXPECT_GT(statValue(stats, "onesided/get/writeoff"), 0.0);
    EXPECT_GT(statValue(stats, "onesided/chip_writeoff"), 0.0);
    EXPECT_GT(statValue(stats, "onesided/get/abort"), 0.0);
}

TEST(OneSidedRecovery, KillDelaysOnlyTilesReadingTheCorpse)
{
    // Per-tile independence bounds the damage: the kill costs about
    // one detection latency plus the detoured re-reads on the tiles
    // that touch the corpse — NOT a global restart. (The collective
    // executors can't even be compared here: without a recovery
    // handler a mid-collective kill is fatal for them.)
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = osSpec(4, 4, 2);
    const FaultScenario kill = killScenario("chip5.hbm", 1e-4);
    const GemmRunResult nominal =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, nullptr);
    const GemmRunResult faulted =
        runGemmUnderScenario(cfg, Algorithm::kOneSided, spec, &kill);
    // Lower bound: the survivors cannot finish before the corpse's
    // readers have even detected the failure.
    EXPECT_GT(faulted.time, kill.detectionLatency);
    // Upper bound: the membership cache means the detection latency is
    // paid ONCE (the corpse's first reader detects; later gets redirect
    // straight to the replica), plus the overlapped detour re-reads —
    // far below a second detection window, let alone a global restart.
    EXPECT_LT(faulted.time, 2.0 * kill.detectionLatency);
    EXPECT_LT(faulted.time,
              kill.detectionLatency + 20.0 * nominal.time);
}

TEST(OneSidedRecovery, DetouredGetsAppearAsRecoverySpans)
{
    // sim/critical_path contract: the abort marker and the retried get
    // land in the kRecovery category, and the retry names itself.
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = osSpec(4, 4, 2);
    Cluster cluster(cfg, spec.chips());
    cluster.enableProfiler(true);
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    const FaultScenario kill = killScenario("chip5.hbm", 1e-4);
    FaultInjector injector(cluster.sim(), cluster.net(), kill);
    injector.arm();
    cluster.attachFaults(&injector);
    GemmExecutor executor(mesh);
    executor.run(Algorithm::kOneSided, spec);
    bool saw_retry_span = false;
    bool saw_abort_span = false;
    for (const SpanNode &node : cluster.profiler().nodes()) {
        if (node.category != SpanCategory::kRecovery)
            continue;
        if (node.name.find("retry") != std::string::npos)
            saw_retry_span = true;
        if (node.name.find("abort") != std::string::npos)
            saw_abort_span = true;
    }
    EXPECT_TRUE(saw_retry_span);
    EXPECT_TRUE(saw_abort_span);
}

TEST(OneSidedRecovery, StragglerHurtsLessThanCollectives)
{
    // A straggling (not dead) chip slows its own compute and HBM; the
    // collective executors serialize every ring step behind it, while
    // OneSided only delays the gets and tiles touching it.
    const ChipConfig cfg = tpuV4Config();
    const Gemm2DSpec spec = osSpec(4, 4, 2);
    FaultScenario straggler;
    straggler.stragglers.push_back(
        StragglerFault{/*chip=*/5, /*computeFactor=*/0.25,
                       /*hbmFactor=*/0.5, /*start=*/0.0,
                       /*duration=*/-1.0});
    const FaultStudyResult study = runFaultStudy(
        cfg, spec, straggler,
        {Algorithm::kOneSided, Algorithm::kMeshSlice,
         Algorithm::kCollective});
    const FaultStudyEntry *os = study.find(Algorithm::kOneSided);
    ASSERT_NE(os, nullptr);
    EXPECT_GT(os->slowdown, 1.0);
    for (const Algorithm coll :
         {Algorithm::kMeshSlice, Algorithm::kCollective}) {
        const FaultStudyEntry *e = study.find(coll);
        ASSERT_NE(e, nullptr);
        EXPECT_LT(os->slowdown, e->slowdown) << algorithmName(coll);
    }
}

// ---------------------------------------------------------------------
// Death tests: the one-retry budget, and the enriched two-corpse audit.

TEST(OneSidedDeathTest, SecondKillDuringRetryExhaustsTheBudget)
{
    // Slow links (100 B/s) so the first retry is still in flight when
    // the second kill's detection fires.
    const ChipConfig cfg = simpleConfig();
    Gemm2DSpec spec;
    spec.m = spec.k = spec.n = 16;
    spec.dataflow = Dataflow::kOS;
    spec.rows = spec.cols = 2;
    spec.sliceCount = 1;
    FaultScenario two;
    two.kills.push_back(KillFault{"chip1.hbm", 11.0});
    two.kills.push_back(KillFault{"chip0.hbm", 13.0});
    two.detectionLatency = 0.5;
    EXPECT_DEATH(runGemmUnderScenario(cfg, Algorithm::kOneSided, spec,
                                      &two),
                 "one retry is the recovery budget");
}

TEST(CollectiveDeathTest, SecondKillAuditNamesBothCorpses)
{
    // The audit trail of an exhausted retry budget must identify the
    // original corpse AND the one that killed the rebuilt ring, with
    // their ring positions — "a dead resource" is not actionable.
    const ChipConfig cfg = tpuV4Config();
    FaultScenario two;
    two.kills.push_back(KillFault{"chip1.hbm", 1e-4});
    two.kills.push_back(KillFault{"chip2.hbm", 1e-4});
    two.detectionLatency = 0.5;
    EXPECT_DEATH(
        runCollectiveRecovery(cfg, 2, 4, MiB(8), &two),
        "first failure chip[12]\\.hbm \\(ring position [0-9]+, chip "
        "[12], detected at .*second failure chip[12]\\.hbm "
        "\\(rebuilt-ring position [0-9]+, chip [12], detected at");
}

// ---------------------------------------------------------------------
// Fault-scenario fuzzer: byte-identical round-trip, bounded sims.

FaultScenario
randomScenario(std::mt19937_64 &rng, int trial)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    FaultScenario s;
    s.seed = static_cast<std::uint64_t>(trial) + 1;
    s.detectionLatency = 0.5;
    if (unit(rng) < 0.5)
        s.maxLaunchJitter = 1e-4 * (1.0 + std::floor(unit(rng) * 4.0));
    // Capacity faults on link-direction classes. Zero-capacity windows
    // are always transient (a persistent dead link without a kill
    // would park collective flows forever — the watchdog's job, not
    // this test's); degraded windows may be persistent.
    const char *link_patterns[] = {"link.E", "link.W", "link.S",
                                   "link.N"};
    const int nfaults = static_cast<int>(unit(rng) * 3.0);
    for (int i = 0; i < nfaults; ++i) {
        CapacityFault f;
        f.pattern = link_patterns[static_cast<size_t>(unit(rng) * 4.0)];
        const double roll = unit(rng);
        f.factor = roll < 0.25 ? 0.0 : 0.25 * std::ceil(roll * 3.0);
        f.start = unit(rng) * 2.0;
        f.duration = f.factor == 0.0 ? 1.0 + unit(rng) * 4.0
                                     : (unit(rng) < 0.5
                                            ? -1.0
                                            : 2.0 + unit(rng) * 8.0);
        s.faults.push_back(std::move(f));
    }
    // Stragglers on chips 0/3 only; kills on chips 1/2 only — so a
    // kill can never overlap a straggler's expanded capacity window
    // (which fromJson correctly rejects).
    if (unit(rng) < 0.5) {
        StragglerFault st;
        st.chip = unit(rng) < 0.5 ? 0 : 3;
        st.computeFactor = 0.5;
        st.hbmFactor = 0.5 + 0.5 * unit(rng);
        st.start = unit(rng);
        st.duration = unit(rng) < 0.5 ? -1.0 : 3.0 + unit(rng) * 5.0;
        s.stragglers.push_back(std::move(st));
    }
    if (unit(rng) < 0.4) {
        KillFault k;
        k.pattern = unit(rng) < 0.5 ? "chip1.hbm" : "chip2.hbm";
        k.at = unit(rng) * 5.0;
        s.kills.push_back(std::move(k));
    }
    return s;
}

TEST(FaultScenarioFuzz, SeededScenariosRoundTripByteIdentically)
{
    std::mt19937_64 rng(20260809);
    for (int trial = 0; trial < 32; ++trial) {
        const FaultScenario s = randomScenario(rng, trial);
        const std::string json = s.toJson();
        const FaultScenario back =
            FaultScenario::fromJson(json, "fuzz round-trip");
        EXPECT_EQ(back.toJson(), json) << "trial " << trial;
    }
}

TEST(FaultScenarioFuzz, SeededScenariosSimulateToCompletionBounded)
{
    // A single kill is within the one-sided layer's retry budget, a
    // transient zero-capacity window only parks flows for its
    // duration, and stragglers/jitter just reshape rates — so every
    // generated scenario must drain. `runUntil` bounds the wait: if a
    // scenario ever wedges the fluid network, the test fails instead
    // of hanging.
    const ChipConfig cfg = simpleConfig();
    std::mt19937_64 rng(987654321);
    for (int trial = 0; trial < 12; ++trial) {
        const FaultScenario s = randomScenario(rng, trial);
        Cluster cluster(cfg, 4);
        TorusMesh mesh(cluster, 2, 2);
        FaultInjector injector(cluster.sim(), cluster.net(), s);
        injector.arm();
        cluster.attachFaults(&injector);
        OneSidedComm comm(mesh);
        int completed = 0;
        for (int dst = 0; dst < 2; ++dst) {
            comm.get(GetAxis::kRow, dst, 0, dst, 1, 500,
                     kLaneHorizontalComm,
                     [&completed](const CommStats &) { ++completed; });
            comm.get(GetAxis::kCol, 0, dst, 1, dst, 500,
                     kLaneVerticalComm,
                     [&completed](const CommStats &) { ++completed; });
        }
        cluster.sim().runUntil(1e6);
        EXPECT_EQ(completed, 4) << "trial " << trial << " scenario "
                                << s.toJson();
        EXPECT_LT(cluster.sim().now(), 1e6) << "trial " << trial;
    }
}

/**
 * Remap the sampled scenario's torus link-direction patterns onto the
 * resource names of a non-torus topology (ring: CW/CCW, pipeline:
 * pp+/pp-) so `FaultInjector::arm()`'s no-match fatal doesn't fire.
 * Chip-addressed entries (stragglers, kills) are topology-neutral.
 */
FaultScenario
remapLinkPatterns(FaultScenario s, const char *fwd, const char *bwd)
{
    for (CapacityFault &f : s.faults) {
        if (f.pattern == "link.E" || f.pattern == "link.S")
            f.pattern = fwd;
        else if (f.pattern == "link.W" || f.pattern == "link.N")
            f.pattern = bwd;
    }
    return s;
}

TEST(FaultScenarioFuzz, AllAlgorithmsAndPipelineSimulateBounded)
{
    // The original fuzzer drove the one-sided layer only; this sweep
    // drives every algorithm's full executor schedule — the six 2D
    // algorithms on a torus, the two 1D baselines on a ring — plus one
    // pipeline schedule, under seeded scenarios. Kills stay restricted
    // to the OneSided trials (its per-get retry absorbs one kill);
    // kill recovery for the collective executors is the elastic
    // runtime's job and is soaked in test_elastic.cpp. Every iteration
    // also round-trips the scenario byte-identically, and a deadline
    // stop event bounds each simulation: a wedged schedule fails the
    // executor's drain invariant instead of hanging the suite.
    const ChipConfig cfg = simpleConfig();
    const std::vector<Algorithm> algos = allAlgorithms();
    ASSERT_EQ(algos.size(), 8u);
    std::mt19937_64 rng(20260810);
    constexpr Time kDeadline = 1e7;
    for (int trial = 0; trial < 27; ++trial) {
        FaultScenario s = randomScenario(rng, trial);
        const int kind = trial % 9; // 0..7 = algorithms, 8 = pipeline
        const bool is_pipeline = kind == 8;
        const Algorithm algo = is_pipeline ? Algorithm::kMeshSlice
                                           : algos[static_cast<size_t>(kind)];
        if (algo != Algorithm::kOneSided || is_pipeline)
            s.kills.clear();
        const bool is_1d = !is_pipeline &&
                           (algo == Algorithm::kOneDTP ||
                            algo == Algorithm::kFsdp);
        if (is_1d)
            s = remapLinkPatterns(std::move(s), "link.CW", "link.CCW");
        else if (is_pipeline)
            s = remapLinkPatterns(std::move(s), "link.pp+", "link.pp-");

        const std::string json = s.toJson();
        EXPECT_EQ(FaultScenario::fromJson(json, "fuzz").toJson(), json)
            << "trial " << trial;

        const int chips = is_pipeline ? 8 : 4;
        Cluster cluster(cfg, chips);
        cluster.sim().scheduleAfter(kDeadline, [&cluster] {
            if (!cluster.sim().stopRequested())
                cluster.sim().requestStop();
        });
        Time measured = -1.0;
        if (is_pipeline) {
            PipelineCluster pc(cluster, 2, 2, 2);
            FaultInjector injector(cluster.sim(), cluster.net(), s);
            injector.arm();
            cluster.attachFaults(&injector);
            PipelineExecSpec pspec;
            pspec.microBatches = 3;
            pspec.fwdTime = 2.0;
            pspec.bwdTime = 4.0;
            pspec.boundaryBytes = 400;
            measured = runPipeline(pc, pspec).time;
        } else if (is_1d) {
            RingNetwork ring(cluster);
            FaultInjector injector(cluster.sim(), cluster.net(), s);
            injector.arm();
            cluster.attachFaults(&injector);
            Gemm1DSpec spec1d;
            spec1d.m = spec1d.k = spec1d.n = 16;
            spec1d.chips = 4;
            spec1d.bytesPerElement = 2;
            if (algo == Algorithm::kOneDTP) {
                spec1d.commBytes = 16 * 16 * 2;
                spec1d.local = GemmWork{16, 16, 4};
            } else {
                spec1d.commBytes = 16 * 16 * 2;
                spec1d.local = GemmWork{4, 16, 16};
            }
            measured = runGemm1D(ring, spec1d, algo).time;
        } else {
            TorusMesh mesh(cluster, 2, 2);
            FaultInjector injector(cluster.sim(), cluster.net(), s);
            injector.arm();
            cluster.attachFaults(&injector);
            Gemm2DSpec spec;
            spec.m = spec.k = spec.n = 16;
            spec.rows = spec.cols = 2;
            spec.sliceCount = algo == Algorithm::kOneSided ? 1 : 2;
            GemmExecutor executor(mesh);
            measured = executor.run(algo, spec).time;
        }
        EXPECT_GT(measured, 0.0) << "trial " << trial << " "
                                 << algorithmName(algo);
        EXPECT_LT(measured, kDeadline)
            << "trial " << trial << " " << algorithmName(algo)
            << " scenario " << json;
    }
}

// ---------------------------------------------------------------------
// Overlapping capacity windows x detour-ring bandwidth accounting.

TEST(DetourBandwidth, OverlappingWindowsMultiplyOnRowDetour)
{
    // Two half-rate windows on the row detour, overlapping in
    // [20, 40): the effective rate there is capacity * 0.25 — the
    // windows multiply, they do not shadow each other. Hand-computed
    // drain of c*20 bytes: c/2 * 20 + c/4 * 20 + c/2 * 10 = c*20 at
    // t = 50.
    const ChipConfig cfg = simpleConfig();
    Cluster cluster(cfg, 16);
    TorusMesh mesh(cluster, 4, 4);
    const Ring ring = mesh.rowRingWithout(1, 2);
    ResourceId detour = -1;
    for (ResourceId id : ring.fwd)
        if (cluster.net().resourceName(id).find("detour.fwd") !=
            std::string::npos)
            detour = id;
    ASSERT_GE(detour, 0);
    const double c = cluster.net().capacity(detour);
    FaultScenario overlap;
    overlap.faults.push_back(
        CapacityFault{"link.detour.fwd", 0.5, 0.0, 40.0});
    overlap.faults.push_back(
        CapacityFault{"link.detour.fwd", 0.5, 20.0, 40.0});
    FaultInjector injector(cluster.sim(), cluster.net(), overlap);
    injector.arm();
    Time finished = -1.0;
    cluster.net().startFlow(c * 20.0, {Demand{detour, 1.0}},
                            [&finished, &cluster] {
                                finished = cluster.sim().now();
                            });
    cluster.sim().runUntil(1e4);
    ASSERT_GE(finished, 0.0);
    EXPECT_NEAR(finished, 50.0, 1e-6);
}

TEST(DetourBandwidth, OverlappingWindowsMultiplyOnColumnDetour)
{
    // Column-ring analogue with an interior window: 0.5 over [0, 30)
    // and 0.25 over [10, 20) compose to 0.125 in the overlap. Draining
    // c*11.25 bytes: c/2*10 + c/8*10 + c/2*10 = c*11.25 at t = 30.
    const ChipConfig cfg = simpleConfig();
    Cluster cluster(cfg, 16);
    TorusMesh mesh(cluster, 4, 4);
    const Ring ring = mesh.colRingWithout(1, 2);
    ResourceId detour = -1;
    for (ResourceId id : ring.bwd)
        if (cluster.net().resourceName(id).find("detour.bwd") !=
            std::string::npos)
            detour = id;
    ASSERT_GE(detour, 0);
    const double c = cluster.net().capacity(detour);
    FaultScenario overlap;
    overlap.faults.push_back(
        CapacityFault{"link.detour.bwd", 0.5, 0.0, 30.0});
    overlap.faults.push_back(
        CapacityFault{"link.detour.bwd", 0.25, 10.0, 10.0});
    FaultInjector injector(cluster.sim(), cluster.net(), overlap);
    injector.arm();
    Time finished = -1.0;
    cluster.net().startFlow(c * 11.25, {Demand{detour, 1.0}},
                            [&finished, &cluster] {
                                finished = cluster.sim().now();
                            });
    cluster.sim().runUntil(1e4);
    ASSERT_GE(finished, 0.0);
    EXPECT_NEAR(finished, 30.0, 1e-6);
}

} // namespace
} // namespace meshslice
