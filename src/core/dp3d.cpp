#include "core/dp3d.hpp"

#include <algorithm>

#include "core/mesh_ops.hpp"
#include "core/taskgraph.hpp"
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
        fanoutRings(
            torus.depthRings(),
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
    if (!supportsMesh(Algorithm::kCannon, torus.rows(), torus.cols()))
        panic("run25DGemm: 2.5D requires a square base mesh, got %dx%d",
              torus.rows(), torus.cols());
    if (p % c_depth != 0)
        panic("run25DGemm: depth %d must divide the base dimension %d",
              c_depth, p);

    Gemm3DResult out;
    out.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                static_cast<double>(n);
    GemmRunResult intra;

    Gemm2DSpec layer;
    layer.m = m;
    layer.k = k;
    layer.n = n;
    layer.rows = p;
    layer.cols = p;
    layer.bytesPerElement = bytes_per_element;
    const Bytes e = bytes_per_element;
    const Bytes chips2d = layer.chips();
    const Bytes shard_a = m * k * e / chips2d;
    const Bytes shard_b = k * n * e / chips2d;
    const Bytes shard_c = m * n * e / chips2d;

    TaskGraph graph(cluster.sim(), &cluster.profiler());

    // Phase 1: replicate the A and B shards across the depth rings
    // (broadcast from layer 0 — the 2.5D "c copies of the inputs").
    const int replicate = graph.addTask([&](std::function<void()> done) {
        fanoutRings(
            torus.depthRings(),
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

    // Phase 2 per layer: P/c steps of Cannon (each layer starts from a
    // different rotation offset; timing is identical).
    std::vector<int> reduce_deps;
    for (int l = 0; l < torus.depth(); ++l)
        reduce_deps.push_back(buildCannon(graph, torus.layer(l), layer,
                                          &intra, p / c_depth, replicate));

    // Phase 3: reduce the partial C's over the depth rings.
    graph.addTask(
        [&](std::function<void()> done) {
            fanoutRings(
                torus.depthRings(),
                [&out, done = std::move(done)](const CommStats &stats) {
                    out.interLayer += stats;
                    done();
                },
                [&](const Ring &ring, CommDone ring_done) {
                    ringReduce(cluster, ring, 0, shard_c,
                               std::max(1, c_depth), kLaneVerticalComm,
                               std::move(ring_done));
                });
        },
        reduce_deps);

    out.time = graph.run("run25DGemm");
    out.intraLayer += intra.horizontal;
    out.intraLayer += intra.vertical;
    return out;
}

} // namespace meshslice
