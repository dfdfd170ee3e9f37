/**
 * @file
 * perfbench: one benchmark run of one workload.
 *
 *   perfbench --workload plan_cold|serve_mix|elastic_train --seed N
 *             --seconds S --trace 0|1
 *
 * Run from the repository root. Each workload runs its own block as the
 * measured closed loop for S seconds, with bursts of a companion block
 * spread over the loop for the end-to-end metrics its own block does
 * not produce (README.md). Set-up is repeated at moments spread over
 * the loop and its median reported. With --trace 0 the run prints every
 * end-to-end metric; with --trace 1 every per-layer metric, and writes
 * its spans to .bench_build/traces/<workload>-seed<N>.json. The last
 * stdout line is the result object.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "harness/workload.hpp"
#include "tuner/cost_model.hpp"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "plan_cold|serve_mix|elastic_train --seed N --seconds S "
                 "--trace 0|1\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            args.trace = value == "1";
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end != nullptr && (*end != '\0' || end == value.c_str()))
            usage(("bad value for " + flag).c_str());
    }
    if (args.workload != "plan_cold" && args.workload != "serve_mix" &&
        args.workload != "elastic_train")
        usage("unknown workload");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

/** Pool size of the parallel blocks: the CPUs this process may run on,
 *  capped at 4 so that hosts with more cores compare alike. */
int
poolThreads()
{
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    const int allowed = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                            ? CPU_COUNT(&cpus)
                            : 1;
    return std::clamp(allowed, 1, 4);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Per-layer metrics of a traced run, from its spans and exact counts. */
void
reportLayers(Run &run, const Overhead &overhead)
{
    const Tracer &t = run.tracer;
    Report &r = run.report;
    const LayerCounts &c = run.counts;
    auto timed = [&](const std::string &metric, const std::string &span,
                     double scale, const std::string &unit,
                     const std::string &what) {
        const std::vector<double> d = t.durations(span);
        r.metric(metric, median(d) * scale, unit, "host",
                 what + ", median of " + std::to_string(d.size()));
    };

    timed("tuner.shortlist_ms", "tuner.shortlist", 1e3, "ms",
          "LlmAutotuner::rankShapes");
    timed("tuner.robust_s", "tuner.robust", 1.0, "s",
          "tuneRobustShortlist");
    timed("tuner.recovery_ms", "tuner.recovery", 1e3, "ms",
          "tuneWithRecoveryShortlist");
    timed("tuner.pipeline_ms", "tuner.pipeline", 1e3, "ms", "tunePipeline");
    timed("core.validate_s", "core.validate", 1.0, "s",
          "12-GeMM plan check (GemmExecutor::run)");

    // Slowest GeMM of each check.
    std::vector<double> slowest;
    const std::vector<SpanRecord> &spans = t.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name != "core.validate")
            continue;
        double worst = 0.0;
        for (const SpanRecord &s : spans)
            if (s.parent == static_cast<int>(i) && s.name == "core.gemm")
                worst = std::max(worst, s.seconds());
        slowest.push_back(worst);
    }
    r.metric("core.gemm_max_s", median(slowest), "s", "host",
             "slowest GemmExecutor::run of a check, median of " +
                 std::to_string(slowest.size()));

    r.metric("sim.events", static_cast<double>(c.simEvents), "count",
             "count", "Simulator::eventsProcessed of the checks in the "
                      "exact window");
    r.metric("sim.events_per_s",
             c.simHostSeconds > 0.0 ? c.simEvents / c.simHostSeconds : 0.0,
             "1/s", "host", "those events over the checks' host time");
    timed("hw.cluster_build_ms", "hw.cluster_build", 1e3, "ms",
          "Cluster + TorusMesh construction");
    r.metric("net.comm_bytes", c.commBytes, "bytes", "count",
             "Cluster::commBytesIssued of the checks in the exact window");

    const std::vector<double> hits = t.durations("engine.plan.cache_hit");
    r.metric("engine.hit_us.p50", median(hits) * 1e6, "us", "host",
             "PlanEngine::plan cache hits, of " +
                 std::to_string(hits.size()));
    r.metric("engine.hit_us.p99", percentile(hits, 0.99) * 1e6, "us",
             "host", "PlanEngine::plan cache hits, of " +
                         std::to_string(hits.size()));
    std::vector<double> misses = t.durations("engine.plan.cold");
    for (double d : t.durations("engine.plan.incremental"))
        misses.push_back(d);
    r.metric("engine.miss_ms.p50", median(misses) * 1e3, "ms", "host",
             "PlanEngine::plan cold + incremental, of " +
                 std::to_string(misses.size()));
    const double lookups = c.cacheHits + c.cacheMisses;
    r.metric("engine.hit_ratio", lookups > 0.0 ? c.cacheHits / lookups : 0.0,
             "ratio", "count", "engine/cache hit/(hit+miss), exact window");
    r.metric("engine.evictions", c.evictions, "count", "count",
             "engine/cache/eviction, exact window");
    timed("engine.query_parse_us", "engine.query_parse", 1e6, "us",
          "planQueryFromJson");
    timed("engine.key_us", "engine.key", 1e6, "us",
          "planKeyOf + PlanKey::full");
    timed("engine.plan_parse_us", "engine.plan_parse", 1e6, "us",
          "enginePlanFromJson of the served text");
    timed("util.digest_us", "util.digest", 1e6, "us",
          "fnv1a64Hex of the full key");

    timed("run.elastic_s", "run.elastic", 1.0, "s",
          "runElastic, functional state on");
    timed("run.timed_only_s", "run.timed_only", 1.0, "s",
          "runElastic, functional state off");
    const std::vector<double> kernel = t.durations("gemm.kernel");
    const double kernel_s = median(kernel);
    const double kernel_flops =
        elasticBase(meshslice::tpuV4Config()).spec.totalFlops();
    r.metric("gemm.kernel_gflops",
             kernel_s > 0.0 ? kernel_flops / kernel_s * 1e-9 : 0.0,
             "GFLOP/s", "host",
             "Matrix::gemm on the run's full operands, median of " +
                 std::to_string(kernel.size()));
    timed("gemm.scatter_gather_ms", "gemm.scatter_gather", 1e3, "ms",
          "DistMatrix::scatter + gather");

    r.metric("trace.overhead_pct", overhead.pct, "%", "host",
             overhead.note);
    const std::map<std::string, double> self = t.selfSecondsByLayer();
    for (const char *layer : {"client", "engine", "tuner", "core", "hw",
                              "util", "run", "gemm"}) {
        const auto it = self.find(layer);
        r.metric(std::string("self.") + layer + "_s",
                 it == self.end() ? 0.0 : it->second, "s", "host",
                 "self time summed over traced operations");
    }
}

/** Loop seconds between two host-speed samples (at most one per gap
 *  between operations). */
constexpr double kSampleEvery = 0.25;

/** Set-ups in one gap between two operations, at most. On plan_cold,
 *  whose ~28 gaps come in three clusters, single set-ups scattered
 *  between ~3.5 and ~6 ms and moved their median from run to run;
 *  repeats within a gap find the process warm and vary less. */
constexpr int kSetUpsPerGap = 3;

/** How a workload's companion block and set-ups are spread over its
 *  loop. */
struct Schedule
{
    long minOps;   ///< main operations even if --seconds runs out first
    long every;    ///< a companion burst after every this many...
    long burst;    ///< ...main operations, of this many companion ones
    size_t setUps; ///< set-ups per run at most; setup_s is their median
};

/** Run @p main_block as the measured loop for --seconds, with bursts of
 *  @p side_block spread over it so the companion samples the whole
 *  run, not one moment of the host's load. Set-ups are spread the same
 *  way: the first serves the loop, and the others are repeated in the
 *  gaps between two operations, as they fall due and at most
 *  kSetUpsPerGap in one gap. The host's speed is sampled in the gaps
 *  too. Neither counts against the loop's time. @p gap is work of the
 *  main block that fills every gap (plan_cold's fetches). */
template <typename Main, typename Side, typename Gap>
void
runWorkload(Run &run, const Args &args, Main &main_block, Side &side_block,
            const Schedule &schedule, const Gap &gap)
{
    std::vector<double> setup_s;
    auto set_up = [&] {
        meshslice::clearCalibrationCache();
        setup_s.push_back(main_block.setUp() + side_block.setUp());
    };
    set_up();
    const double loop_start = hostNow();
    // Set-up k is due once k/setUps of the loop has run.
    auto set_up_due = [&](double at) {
        return setup_s.size() < schedule.setUps &&
               at >= args.seconds * static_cast<double>(setup_s.size()) /
                         static_cast<double>(schedule.setUps);
    };
    double paused = 0.0; // set-ups and speed samples within the loop
    auto elapsed = [&] { return hostNow() - loop_start - paused; };
    double next_sample = 0.0;
    auto between_ops = [&] {
        gap();
        const double start = hostNow();
        const double at = elapsed();
        if (at >= next_sample) {
            run.speed.sample();
            next_sample = at + kSampleEvery;
        }
        for (int i = 0; i < kSetUpsPerGap && set_up_due(at); ++i)
            set_up();
        paused += hostNow() - start;
    };
    long side_op = 0;
    for (long op = 0; op < schedule.minOps || elapsed() < args.seconds;
         ++op) {
        main_block.request(op);
        between_ops();
        if ((op + 1) % schedule.every != 0)
            continue;
        for (long i = 0; i < schedule.burst; ++i) {
            side_block.request(side_op++);
            between_ops();
        }
    }
    run.tracer.setActive(false);
    if (args.trace) {
        reportLayers(run, main_block.overhead());
    } else {
        std::printf("speed  slowdown %.6f: median of %zu reference tasks "
                    "over %g s; end-to-end host times are divided by it\n",
                    run.speed.slowdown(), run.speed.samples(),
                    HostSpeed::kReferenceSeconds);
        hostMetric(run, "setup_s", median(setup_s), "s",
                   "calibration, engine construction and cache warm-up, "
                   "median of " +
                       std::to_string(setup_s.size()) +
                       " spread over the run");
        main_block.reportEndToEnd();
        side_block.reportEndToEnd();
        run.report.metric("peak_rss_mb", peakRssMb(), "MB", "host",
                          "getrusage ru_maxrss");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const int threads = poolThreads();
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "threads=%d (serves: 1)\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, threads);

    Run run(args.seed, args.trace, threads);
    try {
        if (args.workload == "plan_cold") {
            PlanColdBlock plan(run);
            TrainBlock train(run, 4);
            runWorkload(run, args, plan, train,
                        Schedule{args.trace ? 2 : 1, 1, 8, 91},
                        [&plan] { plan.fetch(); });
        } else if (args.workload == "serve_mix") {
            // Traced, at least one companion run must be a traced one.
            constexpr long kEvery = 2048;
            ServeBlock serve(run);
            TrainBlock train(run, 4);
            runWorkload(run, args, serve, train,
                        Schedule{args.trace ? 2 * kEvery
                                            : ServeBlock::kExactWindow,
                                 kEvery, 1, 11},
                        [] {});
        } else {
            // Traced, the companion's exact window must fill up.
            constexpr long kBurst = 64;
            TrainBlock train(run, 8);
            ServeBlock serve(run);
            runWorkload(run, args, train, serve,
                        Schedule{args.trace ? ServeBlock::kExactWindow / kBurst
                                            : 1,
                                 1, kBurst, 11},
                        [] {});
        }
        if (args.trace) {
            const std::string dir = ".bench_build/traces";
            const std::string path = dir + "/" + args.workload + "-seed" +
                                     std::to_string(args.seed) + ".json";
            std::filesystem::create_directories(dir);
            run.tracer.write(path);
            std::printf("spans  %zu written to %s\n",
                        run.tracer.spans().size(), path.c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::printf("%s\n", run.report.resultJson().c_str());
    return 0;
}
