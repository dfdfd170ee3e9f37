/**
 * @file
 * Mesh-wide operation helpers: run one collective on *every* ring of a
 * direction (all rows or all columns) concurrently, or one local GeMM
 * on every chip, completing when all finish. These are the building
 * blocks the timing executors schedule through the task graph.
 */
#ifndef MESHSLICE_CORE_MESH_OPS_HPP_
#define MESHSLICE_CORE_MESH_OPS_HPP_

#include <functional>
#include <memory>
#include <vector>

#include "core/spec.hpp"
#include "hw/compute_model.hpp"
#include "net/collectives.hpp"
#include "net/topology.hpp"
#include "sim/join.hpp"

namespace meshslice {

/** Mesh communication direction. */
enum class Dir { kHorizontal, kVertical };

/**
 * Run @p issue(ring, ring_done) on every ring of @p rings concurrently;
 * @p done receives the per-ring stats merged with `mergeParallel` (the
 * rings are symmetric) once the last ring finished.
 */
template <typename IssueFn>
void
fanoutRings(const std::vector<Ring> &rings, CommDone done, IssueFn issue)
{
    struct Fanout
    {
        CommStats merged;
        CommDone done;
    };
    auto state = std::make_shared<Fanout>();
    state->done = std::move(done);
    Join *join = Join::create(static_cast<int>(rings.size()),
                              [state] { state->done(state->merged); });
    for (const Ring &ring : rings) {
        issue(ring, [state, join](const CommStats &stats) {
            state->merged.mergeParallel(stats);
            join->signal();
        });
    }
}

/**
 * Run an AllGather or ReduceScatter on every ring of @p dir with
 * @p shard_bytes per chip; @p done receives stats merged over the
 * (symmetric, concurrent) rings with `mergeParallel`.
 */
void meshCollective(TorusMesh &mesh, Dir dir, CollKind kind,
                    Bytes shard_bytes, CommDone done);

/**
 * Run a SUMMA pipelined broadcast (or reduce) of @p payload_bytes on
 * every ring of @p dir, rooted at ring position @p root_pos, streamed
 * as @p packets packets.
 */
void meshBroadcastReduce(TorusMesh &mesh, Dir dir, bool is_reduce,
                         int root_pos, Bytes payload_bytes, int packets,
                         CommDone done);

/** One SendRecv rotation of @p block_bytes on every ring of @p dir. */
void meshShift(TorusMesh &mesh, Dir dir, Bytes block_bytes, bool forward,
               CommDone done);

/** The same local GeMM on every chip of the mesh. */
void meshGemm(TorusMesh &mesh, const GemmWork &work,
              std::function<void()> done);

/** The same local GeMM on every chip of a 1D ring network. */
void ringNetGemm(RingNetwork &net, const GemmWork &work,
                 std::function<void()> done);

} // namespace meshslice

#endif // MESHSLICE_CORE_MESH_OPS_HPP_
