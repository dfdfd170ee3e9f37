#include "core/executor.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/mesh_ops.hpp"
#include "core/taskgraph.hpp"
#include "net/onesided.hpp"
#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

int
optimalPacketCount(const ChipConfig &cfg, int hops, Bytes payload)
{
    if (hops <= 1 || payload <= 0)
        return 1;
    // Minimize (hops + D - 1) * (t_sync + payload / (D * bw)) over D.
    const double bw = cfg.iciLinkBandwidth / cfg.logicalMeshContention;
    const double ideal =
        std::sqrt(static_cast<double>(hops - 1) *
                  static_cast<double>(payload) / (bw * cfg.syncLatency));
    return std::clamp(static_cast<int>(std::lround(ideal)), 1, 64);
}

namespace {

/** Accumulate one op's stats into the right direction of the result. */
CommDone
statsSink(GemmRunResult *result, Dir dir, std::function<void()> done)
{
    return [result, dir, done = std::move(done)](const CommStats &stats) {
        if (dir == Dir::kHorizontal)
            result->horizontal += stats;
        else
            result->vertical += stats;
        done();
    };
}

/** Sum of the chips' core busy-seconds (overlap attribution input). */
double
sumCoreBusy(Cluster &cluster)
{
    double sum = 0.0;
    for (int chip = 0; chip < cluster.numChips(); ++chip)
        sum += cluster.net().resourceStats(cluster.coreOf(chip)).busyTime;
    return sum;
}

/**
 * Run @p graph to completion and time it into @p result. A completed run
 * also gets its overlap-efficiency fields from the core-busy delta
 * across the run, and publishes the per-algorithm metrics into the
 * cluster's stats registry; a run abandoned by a requested stop keeps
 * only its partial time, which the caller discards.
 */
void
runAndMeasure(TaskGraph &graph, Cluster &cluster, const char *who,
              const char *algo_name, GemmRunResult &result)
{
    const double core_busy_before = sumCoreBusy(cluster);
    bool stopped = false;
    result.time = graph.run(who, &stopped);
    if (stopped)
        return;
    const double busy = (sumCoreBusy(cluster) - core_busy_before) /
                        std::max(1, cluster.numChips());
    result.computeBusy = busy;
    result.exposedComm = std::max(0.0, result.time - busy);
    StatsRegistry &st = cluster.stats();
    if (!st.enabled())
        return;
    const std::string base = std::string("algo/") + algo_name;
    st.add(base + "/runs", 1.0);
    st.add(base + "/time_s", result.time);
    st.add(base + "/compute_busy_s", result.computeBusy);
    st.add(base + "/exposed_comm_s", result.exposedComm);
    st.observe(base + "/overlap_efficiency",
               result.overlapEfficiency());
    st.observe(base + "/compute_bound_frac",
               result.computeBoundFraction());
}

/**
 * One SendRecv rotation of @p bytes, issued through
 * @p shift(bytes, forward, done). With @p bidir the rotation is split
 * over both ring directions and the halves' stats merged in parallel.
 */
template <typename ShiftFn>
void
splitShift(Bytes bytes, bool bidir, CommDone done, ShiftFn shift)
{
    if (!bidir) {
        shift(bytes, true, std::move(done));
        return;
    }
    // shared_ptr (not a raw new/delete pair): if the phase is abandoned
    // mid-shift the Join is reclaimed by the abandon sweep, and
    // destroying its callback must release the half-merged stats too.
    auto merged = std::make_shared<CommStats>();
    Join *join = Join::create(
        2, [merged, done = std::move(done)] { done(*merged); });
    auto half_done = [merged, join](const CommStats &stats) {
        merged->mergeParallel(stats);
        join->signal();
    };
    shift(bytes / 2, true, half_done);
    shift(bytes - bytes / 2, false, half_done);
}

/**
 * Per-schedule flow-event plumbing: input collectives deposit a flow
 * id as they complete; the next compute task consumes all pending ids,
 * drawing comm -> compute dependency arrows in Perfetto.
 */
struct FlowLinks
{
    std::vector<std::uint64_t> pending;
};

/** One side of a sliced schedule. */
struct Side
{
    Dir dir;
    CollKind op;
    Bytes bytesPerIter; ///< per-chip shard (AG/RdS) or per-ring payload
    int ringSize;
};

/** Both sides with AG/RdS per-chip shard bytes per slice. */
std::vector<Side>
sidesOf(const Gemm2DSpec &spec)
{
    const FlowSide h = horizontalFlow(spec);
    const FlowSide v = verticalFlow(spec);
    const Bytes chips = spec.chips();
    const std::int64_t s = spec.sliceCount;
    return {
        Side{Dir::kHorizontal, h.op, h.matrixBytes / (chips * s),
             spec.cols},
        Side{Dir::kVertical, v.op, v.matrixBytes / (chips * s), spec.rows},
    };
}

/**
 * One op of a collective pipeline: the input (AllGather-side)
 * collectives of comm iterations [lo, hi) feed @p gemm, the output
 * (ReduceScatter-side) ones drain it, on one channel per direction.
 * @p comm(side, iter) makes a task.
 */
template <typename CommFn>
void
addCollectiveOp(SlicePipeline &pipe, const std::vector<Side> &sides,
                int lo, int hi, const CommFn &comm,
                const TaskGraph::TaskFn &gemm)
{
    for (int it = lo; it < hi; ++it)
        for (const Side &side : sides)
            if (side.op == CollKind::kAllGather)
                pipe.feed(static_cast<int>(side.dir), comm(side, it));
    pipe.compute(gemm);
    for (int it = lo; it < hi; ++it)
        for (const Side &side : sides)
            if (side.op == CollKind::kReduceScatter)
                pipe.drain(static_cast<int>(side.dir), comm(side, it));
}

/** Strict program order unless collectives may overlap compute. */
SlicePipeline::Mode
collectiveMode(const ChipConfig &cfg)
{
    return cfg.allowCollectiveOverlap ? SlicePipeline::Mode::kFull
                                      : SlicePipeline::Mode::kNone;
}

/** SendRecv pipelines serialize under the Sec 5.3.1 XLA artifact. */
SlicePipeline::Mode
sendRecvMode(const ChipConfig &cfg)
{
    return cfg.allowSendRecvOverlap ? SlicePipeline::Mode::kFull
                                    : SlicePipeline::Mode::kSerialized;
}

/**
 * Build the software-pipelined sliced schedule shared by MeshSlice and
 * Collective (S=1).
 */
void
buildSliced(TaskGraph &graph, TorusMesh &mesh, const Gemm2DSpec &spec,
            GemmRunResult *state)
{
    const GemmWork work = localSliceWork(spec);

    // Flow arrows (Perfetto): each completed input collective deposits
    // a flow id; the compute that consumes it closes the arrow.
    auto links = std::make_shared<FlowLinks>();
    const int chip0 = mesh.chipAt(0, 0);

    auto comm_task = [&mesh, state, links, chip0](const Side &side, int) {
        return [&mesh, side, state, links,
                chip0](std::function<void()> done) {
            Cluster &cl = mesh.cluster();
            const bool is_input = side.op == CollKind::kAllGather;
            auto wrapped = [&cl, links, chip0, side, is_input,
                            done = std::move(done)] {
                TraceRecorder &tr = cl.trace();
                if (is_input && tr.enabled()) {
                    const std::uint64_t id = tr.newFlowId();
                    const int lane = side.dir == Dir::kHorizontal
                                         ? kLaneHorizontalComm
                                         : kLaneVerticalComm;
                    // 1ns inside the comm span so the arrow binds to it.
                    tr.recordFlow("feeds", "dep", id, chip0, lane,
                                  cl.sim().now() - ns(1.0), true);
                    links->pending.push_back(id);
                }
                done();
            };
            meshCollective(mesh, side.dir, side.op, side.bytesPerIter,
                           statsSink(state, side.dir, std::move(wrapped)));
        };
    };
    auto gemm_task = [&mesh, work, links,
                      chip0](std::function<void()> done) {
        Cluster &cl = mesh.cluster();
        TraceRecorder &tr = cl.trace();
        if (tr.enabled() && !links->pending.empty()) {
            for (std::uint64_t id : links->pending)
                tr.recordFlow("feeds", "dep", id, chip0, kLaneCompute,
                              cl.sim().now() + ns(1.0), false);
            links->pending.clear();
        }
        meshGemm(mesh, work, std::move(done));
    };

    SlicePipeline pipe(graph, collectiveMode(mesh.cluster().config()));
    const auto sides = sidesOf(spec);
    for (int s = 0; s < spec.sliceCount; ++s)
        addCollectiveOp(pipe, sides, s, s + 1, comm_task, gemm_task);
}

/**
 * SUMMA: the matrices are split into P x P shards (P =
 * `summaIterations`, Sec 2.3.3), giving P communication iterations of
 * pipelined bcast/reduce per direction — the O(P^2) synchronization
 * cost. Loop unrolling (Sec 4.2) merges the *computation* into the
 * S <= P groups of `spec.sliceCount` but leaves the fine-grain
 * communication in place: group g computes iterations
 * [g*P/S, (g+1)*P/S).
 */
void
buildSumma(TaskGraph &graph, TorusMesh &mesh, const Gemm2DSpec &spec,
           GemmRunResult *state)
{
    const int p_iter = summaIterations(spec.rows, spec.cols);
    const int s_count = spec.sliceCount;
    const GemmWork work = localSliceWork(spec);

    // Per-direction, per-communication-iteration payload of one ring.
    const FlowSide h = horizontalFlow(spec);
    const FlowSide v = verticalFlow(spec);
    const std::vector<Side> sides = {
        {Dir::kHorizontal, h.op,
         h.matrixBytes / (static_cast<Bytes>(spec.rows) * p_iter),
         spec.cols},
        {Dir::kVertical, v.op,
         v.matrixBytes / (static_cast<Bytes>(spec.cols) * p_iter),
         spec.rows},
    };

    auto comm_task = [&mesh, state](const Side &side, int iter) {
        return [&mesh, state, side, iter](std::function<void()> done) {
            const ChipConfig &c = mesh.cluster().config();
            const int hops = c.bidirectionalIci
                                 ? std::max(1, side.ringSize / 2)
                                 : side.ringSize - 1;
            const int packets =
                optimalPacketCount(c, hops, side.bytesPerIter);
            meshBroadcastReduce(mesh, side.dir,
                                side.op == CollKind::kReduceScatter, iter,
                                side.bytesPerIter, packets,
                                statsSink(state, side.dir,
                                          std::move(done)));
        };
    };
    auto gemm_task = [&mesh, work](std::function<void()> done) {
        meshGemm(mesh, work, std::move(done));
    };

    SlicePipeline pipe(graph, collectiveMode(mesh.cluster().config()));
    for (int g = 0; g < s_count; ++g)
        addCollectiveOp(pipe, sides, g * p_iter / s_count,
                        (g + 1) * p_iter / s_count, comm_task, gemm_task);
}

/** Wang: overlap the heavier direction via SendRecv rotations. */
void
buildWang(TaskGraph &graph, TorusMesh &mesh, const Gemm2DSpec &spec,
          GemmRunResult *state)
{
    const ChipConfig &cfg = mesh.cluster().config();
    const int s_count = spec.sliceCount;
    const GemmWork work = localSliceWork(spec);
    const auto sides = sidesOf(spec);
    const size_t ov = wangOverlapsHorizontal(spec) ? 0 : 1;
    const Side &ov_side = sides[ov];
    const Side &bl_side = sides[1 - ov];

    // Per-iteration rotation bytes: the whole (P-1)/P fraction of the
    // overlapped matrix split over S SendRecvs. With bidirectional ICI
    // the rotation is split over both directions.
    const Bytes iter_bytes = ov_side.bytesPerIter * (ov_side.ringSize - 1);
    const bool bidir = cfg.bidirectionalIci && ov_side.ringSize > 2;

    auto shift_task = [&mesh, ov_side, iter_bytes, bidir, state](
                          std::function<void()> done) {
        splitShift(iter_bytes, bidir,
                   statsSink(state, ov_side.dir, std::move(done)),
                   [&mesh, dir = ov_side.dir](Bytes bytes, bool forward,
                                              CommDone half) {
                       meshShift(mesh, dir, bytes, forward,
                                 std::move(half));
                   });
    };
    auto gemm_task = [&mesh, work](std::function<void()> done) {
        meshGemm(mesh, work, std::move(done));
    };
    // Blocking side: one full (unsliced) collective.
    auto blocking_task = [&mesh, bl_side, s_count, state](
                             std::function<void()> done) {
        meshCollective(mesh, bl_side.dir, bl_side.op,
                       bl_side.bytesPerIter * s_count,
                       statsSink(state, bl_side.dir, std::move(done)));
    };

    // A blocking AllGather is the pipeline's prologue; a blocking
    // ReduceScatter its epilogue, after the last compute.
    const bool bl_is_ag = bl_side.op == CollKind::kAllGather;
    SlicePipeline pipe(graph, sendRecvMode(cfg),
                       bl_is_ag ? graph.addTask(blocking_task) : -1);
    for (int s = 0; s < s_count; ++s) {
        if (ov_side.op == CollKind::kAllGather)
            pipe.feed(0, shift_task); // shift feeds compute
        pipe.compute(gemm_task);
        if (ov_side.op == CollKind::kReduceScatter)
            pipe.drain(0, shift_task); // RdS decomposition
    }
    if (!bl_is_ag)
        graph.addTask(blocking_task, pipe.tail());
}

} // namespace

int
buildCannon(TaskGraph &graph, TorusMesh &mesh, const Gemm2DSpec &spec,
            GemmRunResult *accum, int iterations, int after)
{
    if (!supportsMesh(Algorithm::kCannon, spec.rows, spec.cols))
        panic("Cannon requires a square mesh, got %dx%d", spec.rows,
              spec.cols);
    const int p = spec.rows;
    const Bytes e = spec.bytesPerElement;
    const Bytes chips = spec.chips();
    const Bytes shard_a = spec.m * spec.k * e / chips;
    const Bytes shard_b = spec.k * spec.n * e / chips;
    const GemmWork work{spec.m / p, spec.k / p, spec.n / p};

    auto shift_task = [&mesh, accum](Dir dir, Bytes bytes) {
        return [&mesh, accum, dir, bytes](std::function<void()> done) {
            meshShift(mesh, dir, bytes, true,
                      statsSink(accum, dir, std::move(done)));
        };
    };
    auto gemm_task = [&mesh, work](std::function<void()> done) {
        meshGemm(mesh, work, std::move(done));
    };

    // Each step's compute waits for one A and one B rotation.
    SlicePipeline pipe(graph, SlicePipeline::Mode::kFull, after);
    auto rotate = [&] {
        pipe.feed(static_cast<int>(Dir::kHorizontal),
                  shift_task(Dir::kHorizontal, shard_a));
        pipe.feed(static_cast<int>(Dir::kVertical),
                  shift_task(Dir::kVertical, shard_b));
    };
    // Skew: row i shifts A by i hops, column j shifts B by j hops. With
    // wraparound the worst chip moves floor(P/2) hops; modelled as that
    // many sequential full-shard rotations in each direction.
    for (int h = 0; h < p / 2; ++h)
        rotate();
    for (int s = 0; s < iterations; ++s) {
        if (s > 0)
            rotate();
        pipe.compute(gemm_task);
    }
    return pipe.tail().front();
}

namespace {

// --------------------------------------------------------------------
// OneSided (Brock & Golin): stationary-C tiles pull their A/B slices
// via async RDMA gets. No mesh-wide task exists anywhere — the
// schedule is rows*cols independent per-tile chains (gets(s) ->
// compute(s)), so a straggling or killed chip delays only the tiles
// whose gets read from it.
// --------------------------------------------------------------------

/** Per-chip schedule state of one OneSided run. */
struct OneSidedChip
{
    /** Fail-stop detected on this chip: its remaining tasks complete
     *  vacuously (per-tile independence — nobody else waits for it). */
    bool dead = false;
    /** In-flight compute flow, cancelled if the chip dies mid-GeMM. */
    FlowId compute = -1;
    /** Pending compute-task continuation, fired on death so the graph
     *  drains without a global abort. */
    std::function<void()> computeDone;
    /** Per-chip accumulated get stats (summed over slices). */
    CommStats h, v;
};

struct OneSidedState
{
    explicit OneSidedState(TorusMesh &mesh) : comm(mesh) {}
    OneSidedComm comm;
    std::vector<OneSidedChip> chips;
};

void
buildOneSided(TaskGraph &graph, TorusMesh &mesh, const Gemm2DSpec &spec,
              GemmRunResult *state)
{
    Cluster &cluster = mesh.cluster();
    const int rows = spec.rows;
    const int cols = spec.cols;
    const int s_count = spec.sliceCount;
    const GemmWork work = localSliceWork(spec);
    const auto sides = sidesOf(spec);
    const Bytes h_shard = sides[0].bytesPerIter;
    const Bytes v_shard = sides[1].bytesPerIter;

    auto st = std::make_shared<OneSidedState>(mesh);
    st->chips.resize(static_cast<size_t>(rows) * cols);

    // Per-chip fail-stop watch (guarded by hasKills, so kill-free runs
    // schedule nothing extra): when a chip dies, cancel its in-flight
    // compute and complete its pending task so the rest of the graph
    // keeps draining. Gets *from* the corpse retry over a detour, gets
    // *into* it are written off — both inside OneSidedComm.
    if (FaultInjector *inj = cluster.faults();
        inj != nullptr && inj->hasKills()) {
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                const int chip = mesh.chipAt(r, c);
                const size_t idx = static_cast<size_t>(r) * cols + c;
                inj->watchKills(
                    {cluster.coreOf(chip), cluster.hbmOf(chip)},
                    [st, &cluster, inj, chip, idx] {
                        OneSidedChip &cs = st->chips[idx];
                        cs.dead = true;
                        // Broadcast HBM deaths to the membership cache
                        // so later gets skip their own detection window
                        // (a core-only kill leaves the HBM readable).
                        if (inj->isKilled(cluster.hbmOf(chip)))
                            st->comm.markDead(chip);
                        if (cs.compute >= 0) {
                            cluster.net().cancelFlow(cs.compute);
                            cs.compute = -1;
                        }
                        if (cluster.stats().enabled())
                            cluster.stats().add("onesided/chip_writeoff",
                                                1.0);
                        if (cs.computeDone) {
                            auto done = std::move(cs.computeDone);
                            cs.computeDone = nullptr;
                            done();
                        }
                    });
            }
        }
    }

    // Get batch of one (chip, slice): a single host launch posts the
    // (cols-1) row gets and (rows-1) col gets; all pull concurrently
    // (contending at this chip's NIC queue) and a join fires the task's
    // completion when the last one lands.
    auto get_task = [st, &mesh, rows, cols, h_shard, v_shard](int r,
                                                              int c) {
        return [st, &mesh, rows, cols, h_shard, v_shard, r,
                c](std::function<void()> done) {
            Cluster &cl = mesh.cluster();
            const size_t idx = static_cast<size_t>(r) * cols + c;
            const int count = (cols - 1) + (rows - 1);
            if (st->chips[idx].dead || count == 0) {
                cl.sim().scheduleAfter(0.0, std::move(done));
                return;
            }
            const int chip = mesh.chipAt(r, c);
            Time launch = cl.config().launchOverhead;
            if (FaultInjector *inj = cl.faults())
                launch += inj->nextLaunchJitter();
            SpanRecorder &prof = cl.profiler();
            const bool profe = prof.enabled();
            const int ptask = profe ? prof.currentTask() : -1;
            std::vector<int> pdeps;
            if (profe)
                pdeps = prof.ambientDeps();
            const Time begin = cl.sim().now();
            cl.sim().scheduleAfter(
                launch,
                [st, &mesh, rows, cols, h_shard, v_shard, r, c, chip, idx,
                 count, launch, begin, profe, ptask,
                 pdeps = std::move(pdeps),
                 done = std::move(done)]() mutable {
                    Cluster &cl = mesh.cluster();
                    int launch_node = -1;
                    if (profe)
                        launch_node = cl.profiler().addNode(
                            strprintf("getbatch c%d launch", chip),
                            SpanCategory::kLaunch, begin, cl.sim().now(),
                            std::move(pdeps), chip);
                    // Parallel-merge the batch's gets per direction,
                    // then fold into the chip's running totals.
                    auto acc = std::make_shared<std::array<CommStats, 2>>();
                    Join *join = Join::create(
                        count, [st, idx, acc, launch,
                                done = std::move(done)]() mutable {
                            OneSidedChip &cs = st->chips[idx];
                            CommStats h = (*acc)[0];
                            h.launch = launch;
                            h.total += launch;
                            cs.h += h;
                            cs.v += (*acc)[1];
                            done();
                        });
                    const bool chain = profe && launch_node >= 0;
                    if (chain)
                        cl.profiler().beginChain(ptask, {launch_node});
                    for (int cc = 0; cc < cols; ++cc) {
                        if (cc == c)
                            continue;
                        st->comm.get(GetAxis::kRow, r, c, r, cc, h_shard,
                                     kLaneHorizontalComm,
                                     [acc, join](const CommStats &s) {
                                         (*acc)[0].mergeParallel(s);
                                         join->signal();
                                     });
                    }
                    for (int rr = 0; rr < rows; ++rr) {
                        if (rr == r)
                            continue;
                        st->comm.get(GetAxis::kCol, r, c, rr, c, v_shard,
                                     kLaneVerticalComm,
                                     [acc, join](const CommStats &s) {
                                         (*acc)[1].mergeParallel(s);
                                         join->signal();
                                     });
                    }
                    if (chain)
                        cl.profiler().endChain();
                });
        };
    };

    auto comp_task = [st, &mesh, cols, work](int r, int c) {
        return [st, &mesh, cols, work, r, c](std::function<void()> done) {
            Cluster &cl = mesh.cluster();
            const size_t idx = static_cast<size_t>(r) * cols + c;
            OneSidedChip &cs = st->chips[idx];
            if (cs.dead) {
                cl.sim().scheduleAfter(0.0, std::move(done));
                return;
            }
            cs.computeDone = std::move(done);
            cs.compute = cl.runGemm(mesh.chipAt(r, c), work, [st, idx] {
                OneSidedChip &cs2 = st->chips[idx];
                cs2.compute = -1;
                if (cs2.computeDone) {
                    auto d = std::move(cs2.computeDone);
                    cs2.computeDone = nullptr;
                    d();
                }
            });
        };
    };

    // Per-tile pipelines: gets(s) feed compute(s), with gets(s+1)
    // pipelined over compute(s) unless SendRecv-style overlap is
    // disabled (the real-TPUv4 mode serializes RDMA behind the
    // consuming compute).
    std::vector<SlicePipeline> tiles(
        st->chips.size(),
        SlicePipeline(graph, sendRecvMode(cluster.config())));
    for (int s = 0; s < s_count; ++s) {
        for (int r = 0; r < rows; ++r) {
            for (int c = 0; c < cols; ++c) {
                SlicePipeline &tile =
                    tiles[static_cast<size_t>(r) * cols + c];
                tile.feed(0, get_task(r, c));
                tile.compute(comp_task(r, c));
            }
        }
    }

    // Collector: chips ran concurrently, so the run-level stats are the
    // parallel merge (component-wise max) of the per-chip sums — the
    // same convention as concurrent rings in the collective executors.
    // Costs nothing: it depends on tasks the graph waits for anyway.
    std::vector<int> finals;
    for (const SlicePipeline &tile : tiles)
        for (int t : tile.tail())
            finals.push_back(t);
    graph.addTask(
        [st, state](std::function<void()> done) {
            for (const OneSidedChip &cs : st->chips) {
                state->horizontal.mergeParallel(cs.h);
                state->vertical.mergeParallel(cs.v);
            }
            done();
        },
        finals);
}

} // namespace

void
buildGemmSchedule(TaskGraph &graph, TorusMesh &mesh, Algorithm algo,
                  const Gemm2DSpec &spec, GemmRunResult *accum)
{
    if (spec.rows != mesh.rows() || spec.cols != mesh.cols())
        panic("buildGemmSchedule: spec mesh %dx%d != topology %dx%d",
              spec.rows, spec.cols, mesh.rows(), mesh.cols());
    if (!supportsDataflow(algo, spec.dataflow) ||
        !supportsMesh(algo, spec.rows, spec.cols))
        panic("buildGemmSchedule: %s cannot run %s", algorithmName(algo),
              spec.str().c_str());
    accum->flops += spec.totalFlops();
    Gemm2DSpec eff = spec;
    eff.sliceCount = effectiveSliceCount(algo, spec);
    switch (algo) {
      case Algorithm::kMeshSlice:
      case Algorithm::kCollective:
        buildSliced(graph, mesh, eff, accum);
        break;
      case Algorithm::kSumma:
        buildSumma(graph, mesh, eff, accum);
        break;
      case Algorithm::kWang:
        buildWang(graph, mesh, eff, accum);
        break;
      case Algorithm::kCannon:
        buildCannon(graph, mesh, eff, accum, eff.sliceCount);
        break;
      case Algorithm::kOneSided:
        buildOneSided(graph, mesh, eff, accum);
        break;
      default:
        panic("buildGemmSchedule: %s is not a 2D algorithm",
              algorithmName(algo));
    }
}

GemmRunResult
GemmExecutor::run(Algorithm algo, const Gemm2DSpec &spec)
{
    if (!supportsDataflow(algo, spec.dataflow))
        fatal("GemmExecutor: %s runs output-stationary only, so its "
              "dataflow must be OS, got %s",
              algorithmName(algo), dataflowName(spec.dataflow));
    if (!supportsMesh(algo, spec.rows, spec.cols))
        fatal("GemmExecutor: %s requires a square mesh, got %dx%d",
              algorithmName(algo), spec.rows, spec.cols);
    // Hold every algorithm to the divisibility of the slice count it
    // runs, so no schedule drops work to integer truncation.
    Gemm2DSpec checked = spec;
    checked.sliceCount = effectiveSliceCount(algo, spec);
    validateSpec(checked);
    Cluster &cluster = mesh_.cluster();
    GemmRunResult result;
    TaskGraph graph(cluster.sim(), &cluster.profiler());
    buildGemmSchedule(graph, mesh_, algo, spec, &result);
    runAndMeasure(graph, cluster, "GemmExecutor", algorithmName(algo),
                  result);
    return result;
}

GemmRunResult
runGemm1D(RingNetwork &net, const Gemm1DSpec &spec, Algorithm algo)
{
    validateSpec(spec);
    Cluster &cluster = net.cluster();
    const ChipConfig &cfg = cluster.config();
    const int chips = spec.chips;
    if (chips != cluster.numChips())
        panic("runGemm1D: spec chips %d != cluster %d", chips,
              cluster.numChips());

    GemmRunResult result;
    result.flops = spec.totalFlops();

    const int s_count = spec.sliceCount;
    // Slice the larger free dimension of the local GeMM.
    GemmWork work = spec.localWork();
    if (work.m >= work.n)
        work.m = std::max<std::int64_t>(1, work.m / s_count);
    else
        work.n = std::max<std::int64_t>(1, work.n / s_count);

    const Bytes ring_bytes =
        spec.commBytes / chips * (chips - 1); // per link, whole op
    const Bytes iter_bytes = ring_bytes / s_count;
    const bool bidir = cfg.bidirectionalIci && chips > 2;
    const Ring &ring = net.ring();

    auto shift_task = [&cluster, &ring, iter_bytes, bidir, &result](
                          std::function<void()> done) {
        splitShift(iter_bytes, bidir,
                   statsSink(&result, Dir::kHorizontal, std::move(done)),
                   [&cluster, &ring](Bytes bytes, bool forward,
                                     CommDone half) {
                       ringShift(cluster, ring, bytes, forward,
                                 kLaneHorizontalComm, std::move(half));
                   });
    };
    auto gemm_task = [&net, work](std::function<void()> done) {
        ringNetGemm(net, work, std::move(done));
    };

    // The 1D baselines also overlap via SendRecv rotations, so the
    // XLA-artifact mode (Sec 5.3.1) serializes them too.
    TaskGraph graph(cluster.sim(), &cluster.profiler());
    SlicePipeline pipe(graph, sendRecvMode(cfg));
    for (int s = 0; s < s_count; ++s) {
        if (!spec.commIsReduce)
            pipe.feed(0, shift_task);
        pipe.compute(gemm_task);
        if (spec.commIsReduce)
            pipe.drain(0, shift_task);
    }
    runAndMeasure(graph, cluster, "runGemm1D", algorithmName(algo), result);
    return result;
}

GemmRunResult
runGemmOnCluster(Cluster &cluster, Algorithm algo, const Gemm2DSpec &spec,
                 const std::function<void()> &arm)
{
    if (algo == Algorithm::kOneDTP || algo == Algorithm::kFsdp) {
        RingNetwork ring(cluster);
        arm();
        return runGemm1D(ring,
                         baseline1DSpec(algo,
                                        GemmWork{spec.m, spec.k, spec.n},
                                        false, spec.chips(),
                                        spec.sliceCount,
                                        spec.bytesPerElement),
                         algo);
    }
    TorusMesh mesh(cluster, spec.rows, spec.cols);
    arm();
    return GemmExecutor(mesh).run(algo, spec);
}

} // namespace meshslice
