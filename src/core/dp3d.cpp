#include "core/dp3d.hpp"

#include <algorithm>

#include "core/mesh_ops.hpp"
#include "core/taskgraph.hpp"
#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

Torus3D::Torus3D(Cluster &cluster, int rows, int cols, int depth)
    : cluster_(cluster), rows_(rows), cols_(cols), depth_(depth)
{
    if (rows <= 0 || cols <= 0 || depth <= 0)
        panic("Torus3D: bad shape %dx%dx%d", rows, cols, depth);
    if (rows * cols * depth != cluster.numChips())
        panic("Torus3D: %dx%dx%d != %d chips", rows, cols, depth,
              cluster.numChips());
    for (int l = 0; l < depth; ++l)
        layers_.push_back(std::make_unique<TorusMesh>(
            cluster, rows, cols, l * rows * cols));
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            Ring ring;
            for (int l = 0; l < depth; ++l)
                ring.chips.push_back(l * rows * cols + r * cols + c);
            for (int l = 0; l < depth; ++l) {
                ring.fwd.push_back(cluster.addLink(
                    strprintf("link.D+.r%d.c%d.l%d", r, c, l)));
                ring.bwd.push_back(cluster.addLink(
                    strprintf("link.D-.r%d.c%d.l%d", r, c, l)));
            }
            depthRings_.push_back(std::move(ring));
        }
    }
}

namespace {

/** Fan an operation out to every depth ring; join with merged stats. */
template <typename IssueFn>
void
allDepthRings(Torus3D &torus, CommDone done, IssueFn issue)
{
    struct Fanout
    {
        CommStats merged;
        CommDone done;
    };
    auto state = std::make_shared<Fanout>();
    state->done = std::move(done);
    const int rings = torus.rows() * torus.cols();
    Join *join = Join::create(rings, [state] { state->done(state->merged); });
    for (int r = 0; r < torus.rows(); ++r)
        for (int c = 0; c < torus.cols(); ++c)
            issue(torus.depthRing(r, c),
                  [state, join](const CommStats &stats) {
                      state->merged.mergeParallel(stats);
                      join->signal();
                  });
}

} // namespace

Gemm3DResult
runMeshSliceDP(Torus3D &torus, Algorithm algo,
               const Gemm2DSpec &layer_spec, Bytes weight_grad_bytes)
{
    Cluster &cluster = torus.cluster();
    Gemm3DResult out;
    GemmRunResult layer_accum;
    bool finished = false;

    TaskGraph graph(cluster.sim(), &cluster.profiler());
    // Layers are independent data-parallel replicas: their schedules
    // share the graph with no cross dependencies.
    for (int l = 0; l < torus.depth(); ++l)
        buildGemmSchedule(graph, torus.layer(l), algo, layer_spec,
                          &layer_accum);
    // Timestamp the schedule's completion, not the simulator's drain
    // (as in GemmExecutor::run): a fault window that outlives the step
    // must not inflate its time.
    const Time begin = cluster.sim().now();
    Time end = begin;
    auto finish = [&] {
        finished = true;
        end = cluster.sim().now();
    };
    // The DP gradient all-reduce over the depth rings starts as soon
    // as every layer's GeMM has completed.
    graph.start([&] {
        if (torus.depth() == 1 || weight_grad_bytes <= 0) {
            finish();
            return;
        }
        allDepthRings(
            torus,
            [&](const CommStats &stats) {
                out.interLayer += stats;
                finish();
            },
            [&](const Ring &ring, CommDone ring_done) {
                ringAllReduce(cluster, ring, weight_grad_bytes,
                              kLaneVerticalComm, std::move(ring_done));
            });
    });
    cluster.sim().run();
    if (!finished)
        panic("runMeshSliceDP: schedule did not drain");

    out.time = end - begin;
    out.flops = layer_accum.flops;
    out.intraLayer += layer_accum.horizontal;
    out.intraLayer += layer_accum.vertical;
    return out;
}

Gemm3DResult
run25DGemm(Torus3D &torus, std::int64_t m, std::int64_t k, std::int64_t n,
           int bytes_per_element)
{
    Cluster &cluster = torus.cluster();
    const int p = torus.rows();
    const int c_depth = torus.depth();
    if (torus.rows() != torus.cols())
        panic("run25DGemm: 2.5D requires a square base mesh, got %dx%d",
              torus.rows(), torus.cols());
    if (p % c_depth != 0)
        panic("run25DGemm: depth %d must divide the base dimension %d",
              c_depth, p);

    Gemm3DResult out;
    out.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                static_cast<double>(n);
    GemmRunResult intra;

    const Bytes e = bytes_per_element;
    const Bytes chips2d = static_cast<Bytes>(p) * p;
    const Bytes shard_a = m * k * e / chips2d;
    const Bytes shard_b = k * n * e / chips2d;
    const Bytes shard_c = m * n * e / chips2d;
    const GemmWork iter_work{m / p, k / p, n / p};
    const int iterations = p / c_depth;

    TaskGraph graph(cluster.sim(), &cluster.profiler());
    bool finished = false;

    // Phase 1: replicate the A and B shards across the depth rings
    // (broadcast from layer 0 — the 2.5D "c copies of the inputs").
    int replicate_task = graph.addTask([&](std::function<void()> done) {
        allDepthRings(
            torus,
            [&out, done = std::move(done)](const CommStats &stats) {
                out.interLayer += stats;
                done();
            },
            [&](const Ring &ring, CommDone ring_done) {
                ringBroadcast(cluster, ring, 0, shard_a + shard_b,
                              c_depth, kLaneVerticalComm,
                              std::move(ring_done));
            });
    });

    // Phase 2 per layer: Cannon skew then `iterations` shifted
    // multiply-rotate steps (each layer starts from a different
    // rotation offset; timing is identical).
    auto shift_task = [&](int l, Dir dir, Bytes bytes) {
        return [&, l, dir, bytes](std::function<void()> done) {
            meshShift(torus.layer(l), dir, bytes, true,
                      [&intra, dir, done = std::move(done)](
                          const CommStats &stats) {
                          if (dir == Dir::kHorizontal)
                              intra.horizontal += stats;
                          else
                              intra.vertical += stats;
                          done();
                      });
        };
    };
    auto gemm_task = [&, iter_work](int l) {
        return [&, l, iter_work](std::function<void()> done) {
            meshGemm(torus.layer(l), iter_work, std::move(done));
        };
    };

    std::vector<int> reduce_deps;
    for (int l = 0; l < torus.depth(); ++l) {
        int prev_h = replicate_task;
        int prev_v = replicate_task;
        for (int h = 0; h < p / 2; ++h) {
            prev_h = graph.addTask(shift_task(l, Dir::kHorizontal,
                                              shard_a),
                                   {prev_h});
            prev_v = graph.addTask(shift_task(l, Dir::kVertical, shard_b),
                                   {prev_v});
        }
        int prev_comp = -1;
        for (int it = 0; it < iterations; ++it) {
            std::vector<int> deps{prev_h, prev_v};
            if (prev_comp >= 0)
                deps.push_back(prev_comp);
            prev_comp = graph.addTask(gemm_task(l), deps);
            if (it + 1 < iterations) {
                prev_h = graph.addTask(shift_task(l, Dir::kHorizontal,
                                                  shard_a),
                                       {prev_h});
                prev_v = graph.addTask(shift_task(l, Dir::kVertical,
                                                  shard_b),
                                       {prev_v});
            }
        }
        reduce_deps.push_back(prev_comp);
    }

    // Phase 3: reduce the partial C's over the depth rings.
    graph.addTask(
        [&](std::function<void()> done) {
            allDepthRings(
                torus,
                [&out, done = std::move(done)](const CommStats &stats) {
                    out.interLayer += stats;
                    done();
                },
                [&](const Ring &ring, CommDone ring_done) {
                    const int packets =
                        std::max(1, c_depth);
                    ringReduce(cluster, ring, 0, shard_c, packets,
                               kLaneVerticalComm, std::move(ring_done));
                });
        },
        reduce_deps);

    // The schedule's completion time, not the simulator's drain.
    const Time begin = cluster.sim().now();
    Time end = begin;
    graph.start([&finished, &end, &cluster] {
        finished = true;
        end = cluster.sim().now();
    });
    cluster.sim().run();
    if (!finished)
        panic("run25DGemm: schedule did not drain");

    out.time = end - begin;
    out.intraLayer += intra.horizontal;
    out.intraLayer += intra.vertical;
    return out;
}

} // namespace meshslice
