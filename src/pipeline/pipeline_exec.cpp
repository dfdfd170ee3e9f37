#include "pipeline/pipeline_exec.hpp"

#include <algorithm>
#include <memory>

#include "core/taskgraph.hpp"
#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

PipelineCluster::PipelineCluster(Cluster &cluster, int stages, int rows,
                                 int cols)
    : cluster_(cluster), stages_(stages), rows_(rows), cols_(cols)
{
    if (stages <= 0 || rows <= 0 || cols <= 0)
        fatal("PipelineCluster: stages (%d), rows (%d) and cols (%d) "
              "must all be positive", stages, rows, cols);
    if (cluster.numChips() != stages * rows * cols)
        fatal("PipelineCluster: cluster has %d chips but %d stages x "
              "%dx%d meshes need %d", cluster.numChips(), stages, rows,
              cols, stages * rows * cols);
    if (stages < 2)
        return; // no boundaries, no links
    const size_t n = static_cast<size_t>(stages) *
                     static_cast<size_t>(rows) *
                     static_cast<size_t>(cols);
    fwdLinks_.reserve(n);
    bwdLinks_.reserve(n);
    for (int s = 0; s < stages; ++s)
        for (int r = 0; r < rows; ++r)
            for (int c = 0; c < cols; ++c) {
                fwdLinks_.push_back(cluster.addLink(
                    strprintf("link.pp+.s%d.r%d.c%d", s, r, c)));
                bwdLinks_.push_back(cluster.addLink(
                    strprintf("link.pp-.s%d.r%d.c%d", s, r, c)));
            }
}

int
PipelineCluster::chipAt(int stage, int r, int c) const
{
    if (stage < 0 || stage >= stages_ || r < 0 || r >= rows_ || c < 0 ||
        c >= cols_)
        fatal("PipelineCluster::chipAt: (%d, %d, %d) out of range for "
              "%d stages of %dx%d", stage, r, c, stages_, rows_, cols_);
    return (stage * rows_ + r) * cols_ + c;
}

ResourceId
PipelineCluster::fwdLink(int boundary, int r, int c) const
{
    if (stages_ < 2)
        fatal("PipelineCluster::fwdLink: a %d-stage pipeline has no "
              "boundaries", stages_);
    return fwdLinks_.at(static_cast<size_t>(
        (boundary * rows_ + r) * cols_ + c));
}

ResourceId
PipelineCluster::bwdLink(int boundary, int r, int c) const
{
    if (stages_ < 2)
        fatal("PipelineCluster::bwdLink: a %d-stage pipeline has no "
              "boundaries", stages_);
    return bwdLinks_.at(static_cast<size_t>(
        (boundary * rows_ + r) * cols_ + c));
}

PipelineTimeModel
timeModelFor(const PipelineExecSpec &spec, const ChipConfig &cfg,
             int rows, int cols)
{
    PipelineTimeModel tm;
    tm.fwdTask = spec.fwdTime;
    tm.bwdTask = spec.bwdTime;
    const Bytes total = spec.boundaryBytes + spec.remapBytes;
    if (total > 0) {
        const double per_pos =
            static_cast<double>(total) /
            static_cast<double>(rows * cols);
        tm.sendTask = per_pos / cfg.iciLinkBandwidth +
                      (spec.chargeLaunch ? cfg.launchOverhead : 0.0);
    }
    return tm;
}

namespace {

/** Mutable bookkeeping shared by the task closures of one run. */
struct RunState
{
    std::vector<Time> stageCompute; // busy seconds per stage
    std::vector<Time> stageComm;    // inbound transfer seconds per stage
    Bytes bytesMoved = 0;
};

} // namespace

PipelineRunResult
runPipeline(PipelineCluster &pc, const PipelineExecSpec &spec)
{
    Cluster &cluster = pc.cluster();
    Simulator &sim = cluster.sim();
    const ChipConfig &cfg = cluster.config();
    const int P = pc.stages();
    const int n_pos = pc.chipsPerStage();

    const PipelineProgram program = buildPipelineProgram(
        spec.schedule, P, spec.microBatches, spec.chunks);

    const Bytes boundary_total = spec.boundaryBytes + spec.remapBytes;
    const double per_pos_bytes =
        static_cast<double>(boundary_total) /
        static_cast<double>(n_pos);

    auto state = std::make_shared<RunState>();
    state->stageCompute.assign(static_cast<size_t>(P), 0.0);
    state->stageComm.assign(static_cast<size_t>(P), 0.0);

    TaskGraph graph(sim, &cluster.profiler());
    // graph id of each already-added program task (topo order => every
    // dep is added before its consumer).
    std::vector<int> graph_id(program.tasks.size(), -1);

    auto add_compute = [&](size_t idx) {
        const PipeTask &t = program.tasks[idx];
        const Time dur = t.backward ? spec.bwdTime : spec.fwdTime;
        const int stage = t.stage;
        std::vector<int> deps;
        for (int dep : t.deps) {
            const PipeTask &d = program.tasks[static_cast<size_t>(dep)];
            const int dep_graph = graph_id[static_cast<size_t>(dep)];
            if (dep_graph < 0)
                panic("runPipeline: dependency %d of task %zu not yet "
                      "added (topo order violated)", dep, idx);
            if (d.stage == stage || boundary_total <= 0) {
                // Same-stage edge (policy or stash) — or a zero-byte
                // boundary, which costs nothing: depend directly.
                deps.push_back(dep_graph);
                continue;
            }
            // Cross-stage data edge: insert the boundary transfer.
            // Forward activations ride the + link of the producer's
            // boundary; backward gradients ride the - link of the
            // consumer's boundary (producer = (consumer+1) % P).
            const bool backward = t.backward;
            const int boundary = backward ? stage : d.stage;
            auto body = [&pc, &cluster, &sim, &cfg, state, stage,
                         boundary, backward, per_pos_bytes,
                         n_pos, charge = spec.chargeLaunch](
                            std::function<void()> done) {
                const Time begin = sim.now();
                // Profiler context: the boundary transfer becomes one
                // comm node (preceded by a launch node when charged);
                // snapshot the ambient task before going async.
                SpanRecorder &prof = cluster.profiler();
                const bool profiling = prof.enabled();
                const int prof_task =
                    profiling ? prof.currentTask() : -1;
                auto prof_deps = std::make_shared<std::vector<int>>();
                std::shared_ptr<FlowInfoAccum> accum;
                if (profiling) {
                    *prof_deps = prof.ambientDeps();
                    accum = std::make_shared<FlowInfoAccum>();
                }
                auto launch = [&pc, &cluster, state, stage, boundary,
                               backward, per_pos_bytes, n_pos, begin,
                               &sim, charge, profiling, prof_task,
                               prof_deps, accum,
                               done = std::move(done)]() {
                    if (profiling && charge) {
                        const int lnode = cluster.profiler().addNode(
                            strprintf("pp launch b%d", boundary),
                            SpanCategory::kLaunch, begin, sim.now(),
                            *prof_deps, stage);
                        *prof_deps = {lnode};
                    }
                    const Time xfer_begin = sim.now();
                    Join *join = Join::create(
                        n_pos, [&cluster, state, stage, boundary,
                                backward, begin, xfer_begin, &sim,
                                profiling, prof_task, prof_deps, accum,
                                done = std::move(done)]() {
                            state->stageComm[static_cast<size_t>(
                                stage)] += sim.now() - begin;
                            if (profiling) {
                                SpanRecorder &p = cluster.profiler();
                                const int node = p.addNode(
                                    strprintf("%s b%d",
                                              backward ? "send-"
                                                       : "send+",
                                              boundary),
                                    SpanCategory::kComm, xfer_begin,
                                    sim.now(), *prof_deps, stage);
                                if (accum->info.valid)
                                    p.setNodeResource(node,
                                                      accum->info);
                                p.addTaskExit(prof_task, node);
                            }
                            done();
                        });
                    const int rows = pc.rows();
                    const int cols = pc.cols();
                    const int P = pc.stages();
                    for (int r = 0; r < rows; ++r)
                        for (int c = 0; c < cols; ++c) {
                            const int src_stage =
                                backward ? (boundary + 1) % P
                                         : boundary;
                            const int dst_stage =
                                backward ? boundary
                                         : (boundary + 1) % P;
                            const ResourceId link =
                                backward ? pc.bwdLink(boundary, r, c)
                                         : pc.fwdLink(boundary, r, c);
                            std::vector<Demand> demands = {
                                {link, 1.0},
                                {cluster.hbmOf(
                                     pc.chipAt(src_stage, r, c)),
                                 1.0},
                                {cluster.hbmOf(
                                     pc.chipAt(dst_stage, r, c)),
                                 1.0},
                            };
                            std::function<void()> on_done;
                            if (profiling) {
                                on_done = [&cluster, accum, join]() {
                                    accum->fold(cluster.net()
                                                    .lastFinishedFlow());
                                    join->signal();
                                };
                            } else {
                                on_done = [join]() { join->signal(); };
                            }
                            cluster.net().startFlow(
                                per_pos_bytes, std::move(demands),
                                std::move(on_done));
                        }
                    state->bytesMoved += static_cast<Bytes>(
                        per_pos_bytes * n_pos);
                    cluster.noteCommBytes(static_cast<Bytes>(
                        per_pos_bytes * n_pos));
                };
                if (charge)
                    sim.scheduleAfter(cfg.launchOverhead,
                                      std::move(launch));
                else
                    launch();
            };
            deps.push_back(graph.addTask(std::move(body), {dep_graph}));
        }
        auto body = [&pc, &cluster, &sim, state, stage, dur,
                     micro = t.microBatch, chunk = t.chunk,
                     backward = t.backward,
                     n_pos](std::function<void()> done) {
            const Time begin = sim.now();
            SpanRecorder &prof = cluster.profiler();
            const bool profiling = prof.enabled();
            const int prof_task = profiling ? prof.currentTask() : -1;
            auto prof_deps = std::make_shared<std::vector<int>>();
            std::shared_ptr<FlowInfoAccum> accum;
            if (profiling) {
                *prof_deps = prof.ambientDeps();
                accum = std::make_shared<FlowInfoAccum>();
            }
            Join *join = Join::create(
                n_pos, [&cluster, &sim, state, stage, begin, micro,
                        chunk, backward, profiling, prof_task,
                        prof_deps, accum, done = std::move(done)]() {
                    const Time end = sim.now();
                    state->stageCompute[static_cast<size_t>(stage)] +=
                        end - begin;
                    if (cluster.trace().enabled()) {
                        const int chip = stage; // lane per stage
                        cluster.trace().record(
                            strprintf("%s m%d v%d",
                                      backward ? "B" : "F", micro,
                                      chunk),
                            "pipeline", chip, kLaneCompute, begin,
                            end);
                    }
                    if (profiling) {
                        SpanRecorder &p = cluster.profiler();
                        const int node = p.addNode(
                            strprintf("%s m%d v%d s%d",
                                      backward ? "B" : "F", micro,
                                      chunk, stage),
                            SpanCategory::kCompute, begin, end,
                            *prof_deps, stage);
                        if (accum->info.valid)
                            p.setNodeResource(node, accum->info);
                        p.addTaskExit(prof_task, node);
                    }
                    done();
                });
            const double peak = cluster.config().peakFlops;
            for (int r = 0; r < pc.rows(); ++r)
                for (int c = 0; c < pc.cols(); ++c) {
                    const int chip = pc.chipAt(stage, r, c);
                    std::function<void()> on_done;
                    if (profiling) {
                        on_done = [&cluster, accum, join]() {
                            accum->fold(
                                cluster.net().lastFinishedFlow());
                            join->signal();
                        };
                    } else {
                        on_done = [join]() { join->signal(); };
                    }
                    cluster.net().startFlow(
                        dur * peak, {{cluster.coreOf(chip), 1.0}},
                        std::move(on_done));
                }
        };
        graph_id[idx] = graph.addTask(std::move(body), std::move(deps));
    };

    for (size_t i = 0; i < program.tasks.size(); ++i)
        add_compute(i);

    bool stopped = false;
    const Time span = graph.run("runPipeline", &stopped);
    if (stopped) {
        // A requested stop is a deliberate abandonment: hand back a
        // partial result the caller will discard.
        PipelineRunResult partial;
        partial.time = span;
        return partial;
    }

    PipelineRunResult result;
    result.time = span;
    result.idealCompute =
        static_cast<double>(spec.microBatches * spec.chunks) *
        (spec.fwdTime + spec.bwdTime);
    result.interStageBytes = state->bytesMoved;
    result.stagePhases.resize(static_cast<size_t>(P));
    Time total_compute = 0.0;
    for (int s = 0; s < P; ++s) {
        StagePhase &ph = result.stagePhases[static_cast<size_t>(s)];
        ph.compute = state->stageCompute[static_cast<size_t>(s)];
        ph.comm = state->stageComm[static_cast<size_t>(s)];
        ph.bubble = std::max(0.0, span - ph.compute - ph.comm);
        total_compute += ph.compute;
    }
    result.bubbleFraction =
        span > 0.0
            ? std::max(0.0, 1.0 - total_compute /
                                      (static_cast<double>(P) * span))
            : 0.0;

    StatsRegistry &stats = cluster.stats();
    if (stats.enabled()) {
        stats.add("pipeline/steps", 1.0);
        stats.add("pipeline/span_s", span);
        stats.add("pipeline/inter_stage_bytes",
                  static_cast<double>(state->bytesMoved));
        for (int s = 0; s < P; ++s) {
            const StagePhase &ph =
                result.stagePhases[static_cast<size_t>(s)];
            stats.add(strprintf("pipeline/stage%d/compute_s", s),
                      ph.compute);
            stats.add(strprintf("pipeline/stage%d/comm_s", s), ph.comm);
            stats.add(strprintf("pipeline/stage%d/bubble_s", s),
                      ph.bubble);
        }
    }
    return result;
}

} // namespace meshslice
