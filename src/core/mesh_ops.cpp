#include "core/mesh_ops.hpp"

#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Run @p issue(ring, lane, ring_done) on every ring of @p dir. */
template <typename IssueFn>
void
fanoutMesh(TorusMesh &mesh, Dir dir, CommDone done, IssueFn issue)
{
    const int lane = dir == Dir::kHorizontal ? kLaneHorizontalComm
                                             : kLaneVerticalComm;
    fanoutRings(dir == Dir::kHorizontal ? mesh.rowRings() : mesh.colRings(),
                std::move(done),
                [&issue, lane](const Ring &ring, CommDone ring_done) {
                    issue(ring, lane, std::move(ring_done));
                });
}

} // namespace

void
meshCollective(TorusMesh &mesh, Dir dir, CollKind kind, Bytes shard_bytes,
               CommDone done)
{
    Cluster &cluster = mesh.cluster();
    fanoutMesh(mesh, dir, std::move(done),
               [&cluster, kind, shard_bytes](const Ring &ring, int lane,
                                             CommDone ring_done) {
                   if (kind == CollKind::kAllGather) {
                       ringAllGather(cluster, ring, shard_bytes, lane,
                                     std::move(ring_done));
                   } else {
                       ringReduceScatter(cluster, ring, shard_bytes, lane,
                                         std::move(ring_done));
                   }
               });
}

void
meshBroadcastReduce(TorusMesh &mesh, Dir dir, bool is_reduce, int root_pos,
                    Bytes payload_bytes, int packets, CommDone done)
{
    Cluster &cluster = mesh.cluster();
    fanoutMesh(mesh, dir, std::move(done),
               [&cluster, is_reduce, root_pos, payload_bytes,
                packets](const Ring &ring, int lane, CommDone ring_done) {
                   const int root = root_pos % std::max(1, ring.size());
                   if (is_reduce) {
                       ringReduce(cluster, ring, root, payload_bytes,
                                  packets, lane, std::move(ring_done));
                   } else {
                       ringBroadcast(cluster, ring, root, payload_bytes,
                                     packets, lane, std::move(ring_done));
                   }
               });
}

void
meshShift(TorusMesh &mesh, Dir dir, Bytes block_bytes, bool forward,
          CommDone done)
{
    Cluster &cluster = mesh.cluster();
    fanoutMesh(mesh, dir, std::move(done),
               [&cluster, block_bytes, forward](const Ring &ring, int lane,
                                                CommDone ring_done) {
                   ringShift(cluster, ring, block_bytes, forward, lane,
                             std::move(ring_done));
               });
}

void
meshGemm(TorusMesh &mesh, const GemmWork &work, std::function<void()> done)
{
    Cluster &cluster = mesh.cluster();
    if (work.empty()) {
        cluster.sim().scheduleAfter(0.0, std::move(done));
        return;
    }
    const int chips = mesh.rows() * mesh.cols();
    Join *join = Join::create(chips, std::move(done));
    for (int r = 0; r < mesh.rows(); ++r)
        for (int c = 0; c < mesh.cols(); ++c)
            cluster.runGemm(mesh.chipAt(r, c), work,
                            [join] { join->signal(); });
}

void
ringNetGemm(RingNetwork &net, const GemmWork &work,
            std::function<void()> done)
{
    Cluster &cluster = net.cluster();
    if (work.empty()) {
        cluster.sim().scheduleAfter(0.0, std::move(done));
        return;
    }
    Join *join = Join::create(cluster.numChips(), std::move(done));
    for (int chip = 0; chip < cluster.numChips(); ++chip)
        cluster.runGemm(chip, work, [join] { join->signal(); });
}

} // namespace meshslice
