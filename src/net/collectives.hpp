/**
 * @file
 * Collective communication operations on ring channels.
 *
 * Implements the communication primitives of Sections 2.3 and 3.1:
 *
 *  - `ringAllGather` / `ringReduceScatter`: the efficient AG/RdS
 *    collectives (Fig 3, right). P-1 synchronized steps; each step every
 *    chip forwards one shard to its neighbour. With bidirectional ICI the
 *    payload is split over two counter-rotating rings (ceil/floor of the
 *    P-1 steps each), which is how TPU collectives use both directions.
 *  - `ringBroadcast` / `ringReduce`: SUMMA's fine-grain primitives
 *    (Fig 3, left). The payload is split into D packets streamed over the
 *    P-1 hops of the ring in P+D-2 pipeline stages, with a
 *    synchronization per stage — the source of SUMMA's O(P^2) overhead.
 *  - `ringShift`: one SendRecv rotation step (Cannon / Wang building
 *    block).
 *
 * Every operation reports a `CommStats` breakdown into launch, transfer
 * and synchronization time — the decomposition plotted in Figure 10.
 */
#ifndef MESHSLICE_NET_COLLECTIVES_HPP_
#define MESHSLICE_NET_COLLECTIVES_HPP_

#include <functional>
#include <string>

#include "hw/cluster.hpp"
#include "net/topology.hpp"

namespace meshslice {

/** Cost breakdown of one (or an accumulation of) communication op(s). */
struct CommStats
{
    Time launch = 0.0;   ///< host launch overhead
    Time transfer = 0.0; ///< time spent moving bytes (incl. contention)
    Time sync = 0.0;     ///< per-step synchronization latency
    /**
     * Pipeline bubble: transfer time beyond the contention-free ideal
     * (bytesPerLink / solo link rate) — stragglers, HBM interference,
     * and rate-sharing cuts show up here. Subset of `transfer`.
     */
    Time bubble = 0.0;
    Time total = 0.0;    ///< wall-clock duration of the op(s)
    int syncCount = 0;   ///< number of synchronizations
    Bytes bytesPerLink = 0; ///< bytes pushed through the busiest link

    CommStats &operator+=(const CommStats &other);
    /** Merge a concurrent op: component-wise max of times. */
    CommStats &mergeParallel(const CommStats &other);
};

using CommDone = std::function<void(const CommStats &)>;

/** Failure continuation of a recoverable collective. */
using CommFail = std::function<void(const FailStop &)>;

/**
 * AllGather on @p ring: every chip contributes @p shard_bytes and ends
 * with all P shards. Completion (with stats) via @p done.
 * @p lane is the trace lane (kLaneHorizontalComm / kLaneVerticalComm).
 */
void ringAllGather(Cluster &cluster, const Ring &ring, Bytes shard_bytes,
                   int lane, CommDone done);

/**
 * ReduceScatter on @p ring: every chip contributes a @p shard_bytes * P
 * partial buffer and ends with one reduced shard of @p shard_bytes.
 * Identical communication pattern (and cost) to AllGather, plus the
 * accumulation's extra HBM read at each step's destination.
 */
void ringReduceScatter(Cluster &cluster, const Ring &ring,
                       Bytes shard_bytes, int lane, CommDone done);

/**
 * SUMMA-style pipelined broadcast of @p total_bytes from ring position
 * @p root_pos to all ring members, streamed as @p packets packets.
 */
void ringBroadcast(Cluster &cluster, const Ring &ring, int root_pos,
                   Bytes total_bytes, int packets, int lane, CommDone done);

/** SUMMA-style pipelined reduce (cost-symmetric to ringBroadcast). */
void ringReduce(Cluster &cluster, const Ring &ring, int root_pos,
                Bytes total_bytes, int packets, int lane, CommDone done);

/**
 * AllReduce on @p ring (the DP gradient primitive): every chip
 * contributes a @p total_bytes partial buffer and receives the full
 * sum. Implemented as ReduceScatter followed by AllGather of
 * total_bytes / P shards; stats cover both phases.
 */
void ringAllReduce(Cluster &cluster, const Ring &ring, Bytes total_bytes,
                   int lane, CommDone done);

/**
 * One synchronized SendRecv rotation: every chip sends @p block_bytes
 * one hop (@p forward picks the direction).
 */
void ringShift(Cluster &cluster, const Ring &ring, Bytes block_bytes,
               bool forward, int lane, CommDone done);

/** A shard collective: the one a moving GeMM matrix needs, or the one
 *  `runRecoverableCollective` runs. */
enum class CollKind { kAllGather, kReduceScatter };

/** Result of `runRecoverableCollective`: stats of the attempt that
 *  succeeded, plus the failure (if any) that forced the retry. */
struct RecoveryOutcome
{
    /** Stats of the successful attempt (the retry's, if it retried). */
    CommStats stats;
    /** True when the first attempt aborted and the op re-ran on a
     *  ring rebuilt around the dead chip. */
    bool retried = false;
    /** The failure of the aborted first attempt (valid iff
     *  `retried`). */
    FailStop failure;
    /** Wall-clock from the first launch to final completion — includes
     *  the failed attempt, the detection latency, and the retry. */
    Time totalTime = 0.0;
};

using RecoveryDone = std::function<void(const RecoveryOutcome &)>;

/**
 * Timeout/retry state machine around a fail-stop-aware shard
 * collective (the runtime's fail-stop recovery protocol). Each attempt
 * is like `ringAllGather` / `ringReduceScatter`, but when the fault
 * scenario **kills** a chip or link it depends on, it aborts
 * `detectionLatency` seconds after the kill — cancelling its in-flight
 * transfers and pending steps — with a `FailStop` instead of
 * stranding flows until the watchdog. Without kills the event sequence
 * is bit-identical to the plain collective.
 *
 *   attempt #1 on the mesh's row/col ring
 *     └─ FailStop after the detection timeout
 *          └─ rebuild the ring without the dead position
 *             (`rowRingWithout` / `colRingWithout` detour rings)
 *               └─ attempt #2 — a second failure is fatal (named
 *                  resource), matching "retry once" semantics.
 *
 * @p row_ring selects `mesh.rowRing(index)` vs `mesh.colRing(index)`.
 * @p mesh must outlive the completion (rings are rebuilt through it).
 */
void runRecoverableCollective(TorusMesh &mesh, CollKind kind,
                              bool row_ring, int index, Bytes shard_bytes,
                              int lane, RecoveryDone done);

/**
 * Number of synchronized steps an AG/RdS performs on a P-ring under the
 * given config (accounts for the bidirectional split). Exposed for the
 * analytical cost model's calibration tests.
 */
int collectiveStepCount(const ChipConfig &cfg, int ring_size);

} // namespace meshslice

#endif // MESHSLICE_NET_COLLECTIVES_HPP_
