#include "net/collectives.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "net/comm_op.hpp"
#include "sim/fault.hpp"
#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

CommStats &
CommStats::operator+=(const CommStats &other)
{
    launch += other.launch;
    transfer += other.transfer;
    sync += other.sync;
    bubble += other.bubble;
    total += other.total;
    syncCount += other.syncCount;
    bytesPerLink += other.bytesPerLink;
    return *this;
}

CommStats &
CommStats::mergeParallel(const CommStats &other)
{
    launch = std::max(launch, other.launch);
    transfer = std::max(transfer, other.transfer);
    sync = std::max(sync, other.sync);
    bubble = std::max(bubble, other.bubble);
    total = std::max(total, other.total);
    syncCount = std::max(syncCount, other.syncCount);
    bytesPerLink = std::max(bytesPerLink, other.bytesPerLink);
    return *this;
}

int
collectiveStepCount(const ChipConfig &cfg, int ring_size)
{
    if (ring_size <= 1)
        return 0;
    const int steps = ring_size - 1;
    return cfg.bidirectionalIci ? (steps + 1) / 2 : steps;
}

namespace {

/** Completes `done` immediately (next event batch) with empty stats. */
void
completeEmpty(Cluster &cluster, CommDone done)
{
    cluster.sim().scheduleAfter(0.0, [done = std::move(done)] {
        done(CommStats{});
    });
}

/**
 * True if every directed link of @p ring's @p forward orientation is
 * currently up. A collective direction is usable only as a whole: ring
 * steps move all chips in lockstep, so one dead link kills the chain.
 */
bool
chainUsable(Cluster &cluster, const Ring &ring, bool forward)
{
    const std::vector<ResourceId> &links = forward ? ring.fwd : ring.bwd;
    for (ResourceId id : links)
        if (!cluster.net().isAvailable(id))
            return false;
    return true;
}

/**
 * Diagnose a ring with no usable direction. Dead links are listed by
 * name so the user can match them against the fault scenario.
 */
[[noreturn]] void
failUnroutable(Cluster &cluster, const Ring &ring, const char *op)
{
    std::string dead;
    for (const std::vector<ResourceId> *links : {&ring.fwd, &ring.bwd})
        for (ResourceId id : *links)
            if (!cluster.net().isAvailable(id))
                dead += " " + cluster.net().resourceName(id);
    fatal("%s: ring has no usable direction — dead link(s):%s. The "
          "collective cannot route; rebuild the ring around the failure "
          "(TorusMesh::rowRingWithout/colRingWithout) or revise the "
          "fault scenario.", op, dead.c_str());
}

/**
 * Shared machinery: runs a number of direction chains concurrently,
 * each a sequence of synchronized steps, after a single launch delay;
 * reports assembled stats and self-deletes.
 */
class RingOpBase : public CommOp
{
  public:
    RingOpBase(Cluster &cluster, const Ring &ring, int lane,
               const char *name, CommDone done)
        : CommOp(cluster, std::move(done)), ring_(ring), lane_(lane),
          name_(name)
    {
    }

  protected:
    /** Start @p chains concurrent step chains after the launch delay. */
    void
    launch(int chains)
    {
        activeChains_ = chains;
        stats_.launch = cluster_.config().launchOverhead;
        // Host launch jitter from the fault scenario (0 when no
        // injector is attached, or when the scenario has none — the
        // PRNG is not even consulted then, keeping the empty scenario
        // bit-identical to a run without an injector).
        if (FaultInjector *inj = cluster_.faults())
            stats_.launch += inj->nextLaunchJitter();
        launchEvent_ = cluster_.sim().scheduleAfter(stats_.launch, [this] {
            if (profEnabled_) {
                profLaunchNode_ = cluster_.profiler().addNode(
                    strprintf("%s launch", name_),
                    profCat(SpanCategory::kLaunch), begin_,
                    cluster_.sim().now(), profDeps_, profChip());
                profChainPrev_[0] = profLaunchNode_;
                profChainPrev_[1] = profLaunchNode_;
            }
            const int chains = activeChains_;
            for (int chain = 0; chain < chains; ++chain)
                startStep(chain, 0);
        });
    }

    /**
     * Arm the kill watch over every ring chip's HBM plus the links of
     * the orientations in use (@p fwd, @p bwd).
     */
    void
    watchRing(bool fwd, bool bwd)
    {
        armKillWatch([&](std::vector<ResourceId> &watch) {
            for (int chip : ring_.chips)
                watch.push_back(cluster_.hbmOf(chip));
            if (fwd)
                watch.insert(watch.end(), ring_.fwd.begin(), ring_.fwd.end());
            if (bwd)
                watch.insert(watch.end(), ring_.bwd.begin(), ring_.bwd.end());
        });
    }

    /**
     * The detection timeout fired: a resource this op depends on has
     * failed permanently. Tear down everything in flight (launch
     * event, pending step joins, sync waits, live transfers), then
     * surface a `FailStop` through the recoverable variant's failure
     * continuation — or `fatal()` naming the corpse when there is none.
     */
    void
    onKillDetected() override
    {
        // Prefer a dead chip: that is what the retry evicts. A dead
        // link at fwd[i]/bwd[i] is also cured by evicting chips[i]
        // (the detour ring drops fwd[i-1..i] and bwd[i..i+1]).
        const int n = ring_.size();
        std::vector<ResourceId> suspects;
        suspects.reserve(3 * static_cast<size_t>(n));
        for (int chip : ring_.chips)
            suspects.push_back(cluster_.hbmOf(chip));
        for (int i = 0; i < n; ++i) {
            suspects.push_back(ring_.fwd[static_cast<size_t>(i)]);
            suspects.push_back(ring_.bwd[static_cast<size_t>(i)]);
        }
        const int dead = cluster_.faults()->firstKilled(suspects);
        if (dead < 0)
            panic("%s: fail-stop abort fired but no killed resource was "
                  "found in the ring", name_);
        FailStop err;
        err.op = name_;
        err.detectedAt = cluster_.sim().now();
        err.deadRingPos = dead < n ? dead : (dead - n) / 2;
        err.deadChip = ring_.chips[static_cast<size_t>(err.deadRingPos)];
        err.deadResource = cluster_.net().resourceName(
            suspects[static_cast<size_t>(dead)]);

        cluster_.sim().cancel(launchEvent_);
        for (int chain = 0; chain < 2; ++chain) {
            cluster_.sim().cancel(chainSync_[chain]);
            delete chainJoin_[chain]; // pending join; its flows die below
            chainJoin_[chain] = nullptr;
        }
        for (FlowId id : startedFlows_)
            cluster_.net().cancelFlow(id); // no-op for completed flows
        StatsRegistry &st = cluster_.stats();
        if (st.enabled())
            st.add(std::string("collective/") + name_ + "/abort", 1.0);
        if (cluster_.trace().enabled() && !ring_.chips.empty()) {
            cluster_.trace().recordInstant(std::string(name_) + ".abort",
                                           "fault", ring_.chips[0], lane_,
                                           cluster_.sim().now());
        }
        if (!fail_)
            fatal("%s: %s failed permanently (kill detected at %g s) "
                  "and the collective cannot complete; no recovery "
                  "handler installed — use the recoverable variant to "
                  "retry on a ring rebuilt without chip %d "
                  "(TorusMesh::rowRingWithout/colRingWithout), or "
                  "revise the fault scenario",
                  name_, err.deadResource.c_str(), err.detectedAt,
                  err.deadChip);
        Cluster &cl = cluster_;
        // Record the failed attempt as a recovery detour rooted at an
        // abort marker, then run the failure continuation inside a
        // recovery scope: the retry op it constructs inherits both the
        // original task scope (so its exits land where the first
        // attempt's would have) and the detour dependency.
        const bool prof = profEnabled_;
        const int prof_task = profTask_;
        int abort_node = -1;
        if (prof) {
            abort_node = cl.profiler().addNode(
                strprintf("%s abort", name_), SpanCategory::kRecovery,
                begin_, cl.sim().now(), profDeps_, profChip());
        }
        CommFail fail = std::move(fail_);
        delete this;
        if (prof) {
            SpanRecorder &p = cl.profiler();
            if (prof_task >= 0)
                p.beginTask(prof_task);
            p.beginRecovery(abort_node);
            fail(err);
            p.endRecovery();
            if (prof_task >= 0)
                p.endTask();
        } else {
            fail(err);
        }
    }

    /** Subclass: begin step @p step of @p chain; call stepFlows(). */
    virtual void startStep(int chain, int step) = 0;

    /** Subclass: number of steps in @p chain. */
    virtual int stepCount(int chain) const = 0;

    /**
     * Create the join for @p flow_count flows of (chain, step); when all
     * signalled, wait the sync latency and move to the next step of the
     * chain, or finish once every chain has drained. Each step's
     * transfer duration feeds the per-step phase breakdown (Fig 10).
     */
    Join *
    stepJoin(int chain, int step, int flow_count)
    {
        if (flow_count <= 0) {
            panic("RingOpBase: step with no flows");
        }
        const Time step_begin = cluster_.sim().now();
        if (profEnabled_) {
            profCurrentChain_ = chain;
            profAccum_[chain] = FlowInfoAccum{};
        }
        Join *join = Join::create(flow_count, [this, chain, step,
                                               step_begin] {
            chainJoin_[chain] = nullptr; // the join is self-deleting now
            const Time step_dur = cluster_.sim().now() - step_begin;
            StatsRegistry &st = cluster_.stats();
            if (st.enabled()) {
                st.observe(std::string("collective/") + name_ + "/step_s",
                           step_dur);
            }
            if (cluster_.trace().enabled() && !ring_.chips.empty()) {
                cluster_.trace().recordInstant(
                    std::string(name_) + ".sync", "sync", ring_.chips[0],
                    lane_, cluster_.sim().now());
            }
            const Time sync = cluster_.config().syncLatency;
            if (profEnabled_) {
                // One transfer node per ring step, chained per
                // direction; a fixed-latency sync node follows it.
                SpanRecorder &prof = cluster_.profiler();
                const int prev = profChainPrev_[chain];
                std::vector<int> deps =
                    prev >= 0 ? std::vector<int>{prev} : profDeps_;
                const Time now = cluster_.sim().now();
                int node = prof.addNode(
                    strprintf("%s s%d.%d", name_, chain, step),
                    profCat(SpanCategory::kComm), step_begin, now,
                    std::move(deps), profChip());
                if (profAccum_[chain].info.valid)
                    prof.setNodeResource(node, profAccum_[chain].info);
                profChainPrev_[chain] = prof.addNode(
                    strprintf("%s y%d.%d", name_, chain, step),
                    profCat(SpanCategory::kSync), now, now + sync,
                    {node}, profChip());
            }
            chainSync_[chain] =
                cluster_.sim().scheduleAfter(sync, [this, chain, step] {
                    chainSync_[chain] = EventId{};
                    if (step + 1 < stepCount(chain)) {
                        startStep(chain, step + 1);
                    } else if (--activeChains_ == 0) {
                        finish();
                    }
                });
        });
        chainJoin_[chain] = join;
        return join;
    }

    /** Transfer one block over `ring.fwd/bwd[pos]` with HBM demands. */
    void
    transfer(int pos, bool forward, Bytes bytes, double dst_hbm_demand,
             Join *join)
    {
        const int size = ring_.size();
        const int src = ring_.chips[static_cast<size_t>(pos)];
        const int nxt = forward ? (pos + 1) % size : (pos - 1 + size) % size;
        const int dst = ring_.chips[static_cast<size_t>(nxt)];
        const ResourceId link =
            forward ? ring_.fwd[static_cast<size_t>(pos)]
                    : ring_.bwd[static_cast<size_t>(pos)];
        cluster_.noteCommBytes(bytes);
        std::function<void()> on_done;
        if (profEnabled_) {
            // Fold each flow's binding/throttle info into the step's
            // accumulator before signalling the join.
            const int chain = profCurrentChain_;
            on_done = [this, chain, join] {
                profAccum_[chain].fold(cluster_.net().lastFinishedFlow());
                join->signal();
            };
        } else {
            on_done = [join] { join->signal(); };
        }
        const FlowId fid = cluster_.net().startFlow(
            static_cast<double>(bytes),
            {Demand{link, 1.0}, Demand{cluster_.hbmOf(src), 1.0},
             Demand{cluster_.hbmOf(dst), dst_hbm_demand}},
            std::move(on_done));
        if (watchingKills())
            startedFlows_.push_back(fid); // abort cancels these
    }

    void
    finish()
    {
        // The op completed before any watched kill could strand it.
        disarmKillWatch();
        stats_.total = cluster_.sim().now() - begin_;
        stats_.sync = cluster_.config().syncLatency * stats_.syncCount;
        stats_.transfer = stats_.total - stats_.launch - stats_.sync;
        if (stats_.transfer < 0.0)
            stats_.transfer = 0.0;
        // Bubble: transfer beyond the contention-free ideal of pushing
        // bytesPerLink through one solo link.
        const ChipConfig &cfg = cluster_.config();
        const double solo_rate =
            cfg.iciLinkBandwidth / cfg.logicalMeshContention;
        const Time ideal =
            static_cast<double>(stats_.bytesPerLink) / solo_rate;
        stats_.bubble = std::max(0.0, stats_.transfer - ideal);
        if (cluster_.trace().enabled()) {
            for (int chip : ring_.chips)
                cluster_.trace().record(name_, "comm", chip, lane_, begin_,
                                        cluster_.sim().now());
            cluster_.sampleCounters();
        }
        StatsRegistry &st = cluster_.stats();
        if (st.enabled()) {
            const std::string base = std::string("collective/") + name_;
            st.add(base + "/count", 1.0);
            st.add(base + "/launch_s", stats_.launch);
            st.add(base + "/transfer_s", stats_.transfer);
            st.add(base + "/sync_s", stats_.sync);
            st.add(base + "/bubble_s", stats_.bubble);
            st.add(base + "/total_s", stats_.total);
            st.add(base + "/sync_count", stats_.syncCount);
            st.add(base + "/bytes_per_link",
                   static_cast<double>(stats_.bytesPerLink));
        }
        std::vector<int> exits;
        if (profEnabled_) {
            // The op's exits are each chain's final sync node (falling
            // back to the launch node for a chain that never stepped).
            SpanRecorder &prof = cluster_.profiler();
            for (int chain = 0; chain < 2; ++chain) {
                const int node = profChainPrev_[chain];
                if (node >= 0 && node != profLaunchNode_)
                    exits.push_back(node);
            }
            if (exits.empty() && profLaunchNode_ >= 0)
                exits.push_back(profLaunchNode_);
            for (int node : exits)
                prof.addTaskExit(profTask_, node);
        }
        complete(stats_, std::move(exits));
    }

    const Ring ring_; // copy: caller's Ring may be a temporary
    int lane_;
    const char *name_;
    /** Failure continuation; null = unrecoverable (fatal on abort). */
    CommFail fail_;
    CommStats stats_;
    int activeChains_ = 0;
    EventId launchEvent_;
    /** Per-chain pending step join / sync event, for abort teardown. */
    Join *chainJoin_[2] = {nullptr, nullptr};
    EventId chainSync_[2];
    /** Every flow this op started (only tracked while kills are
     *  watched). */
    std::vector<FlowId> startedFlows_;

    // --- critical-path profiler state (inert when disabled) ---

    /** Representative chip for span nodes. */
    int
    profChip() const
    {
        return ring_.chips.empty() ? -1 : ring_.chips[0];
    }
    int profLaunchNode_ = -1;
    /** Latest recorded node per chain (next step's dependency). */
    int profChainPrev_[2] = {-1, -1};
    /** Chain whose step is being populated (set by stepJoin, read by
     *  transfer — the calls are synchronous within one step). */
    int profCurrentChain_ = 0;
    FlowInfoAccum profAccum_[2];
};

/**
 * AG / RdS: all chips transfer a full sub-shard per step. One chain
 * (unidirectional) or two counter-rotating chains (bidirectional).
 */
class ShardCollectiveOp : public RingOpBase
{
  public:
    ShardCollectiveOp(Cluster &cluster, const Ring &ring, Bytes shard,
                      double dst_hbm_demand, int lane, const char *name,
                      CommDone done, CommFail fail = nullptr)
        : RingOpBase(cluster, ring, lane, name, std::move(done)),
          shard_(shard), dstHbmDemand_(dst_hbm_demand)
    {
        fail_ = std::move(fail);
        const int total_steps = ring.size() - 1;
        // Degraded-ring fallback (paper Fig 3 degenerate case): a dead
        // directed link kills its whole chain, so with one surviving
        // orientation the op runs unidirectionally over P-1 steps.
        const bool fwd_ok = chainUsable(cluster, ring, true);
        const bool bwd_ok = chainUsable(cluster, ring, false);
        if (!fwd_ok && !bwd_ok) {
            // When the ring is unroutable because of a *kill* and a
            // recovery handler is installed, surface the failure after
            // the detection latency instead of a fatal: the caller
            // will rebuild the ring around the corpse. A
            // both-directions capacity window stays fatal (it is a
            // transient the caller should have waited out).
            FaultInjector *inj = cluster.faults();
            if (fail_ && inj && inj->hasKills()) {
                std::vector<ResourceId> links = ring.fwd;
                links.insert(links.end(), ring.bwd.begin(), ring.bwd.end());
                if (inj->firstKilled(links) >= 0) {
                    watchRing(true, true);
                    return; // nothing launches; the abort path owns us
                }
            }
            failUnroutable(cluster, ring, name);
        }
        if (cluster.config().bidirectionalIci && fwd_ok && bwd_ok) {
            stepsPerChain_[0] = (total_steps + 1) / 2;
            stepsPerChain_[1] = total_steps / 2;
        } else {
            stepsPerChain_[0] = total_steps;
            stepsPerChain_[1] = 0;
            chainForward_[0] = fwd_ok;
        }
        stats_.syncCount = stepsPerChain_[0];
        stats_.bytesPerLink = shard_ * stepsPerChain_[0];
        // Fail-stop watch over the orientations actually in use.
        watchRing(stepsPerChain_[1] > 0 || chainForward_[0],
                  stepsPerChain_[1] > 0 || !chainForward_[0]);
        launch(stepsPerChain_[1] > 0 ? 2 : 1);
    }

  protected:
    int
    stepCount(int chain) const override
    {
        return stepsPerChain_[chain];
    }

    void
    startStep(int chain, int step) override
    {
        const bool forward = chainForward_[chain];
        Join *join = stepJoin(chain, step, ring_.size());
        for (int pos = 0; pos < ring_.size(); ++pos)
            transfer(pos, forward, shard_, dstHbmDemand_, join);
    }

  private:
    Bytes shard_;
    double dstHbmDemand_;
    int stepsPerChain_[2] = {0, 0};
    bool chainForward_[2] = {true, false};
};

/**
 * SUMMA bcast/reduce: D packets streamed over the hops of one or two
 * chains rooted at `root_pos`, one pipeline stage per synchronized
 * step. Stage t of a chain carries packet p over hop h = t - p. With
 * bidirectional ICI the root streams all packets down both arcs of the
 * ring (ceil/floor((P-1)/2) hops each), halving the chain depth.
 */
class PipelinedChainOp : public RingOpBase
{
  public:
    PipelinedChainOp(Cluster &cluster, const Ring &ring, int root_pos,
                     Bytes total_bytes, int packets, double dst_hbm_demand,
                     int lane, const char *name, CommDone done)
        : RingOpBase(cluster, ring, lane, name, std::move(done)),
          rootPos_(root_pos), dstHbmDemand_(dst_hbm_demand)
    {
        packets_ = std::max(1, packets);
        packetBytes_ = std::max<Bytes>(1, total_bytes / packets_);
        const int total_hops = ring.size() - 1;
        const bool fwd_ok = chainUsable(cluster, ring, true);
        const bool bwd_ok = chainUsable(cluster, ring, false);
        if (!fwd_ok && !bwd_ok)
            failUnroutable(cluster, ring, name);
        if (cluster.config().bidirectionalIci && total_hops > 1 &&
            fwd_ok && bwd_ok) {
            hops_[0] = (total_hops + 1) / 2;
            hops_[1] = total_hops / 2;
        } else {
            // Single surviving arc: stream every packet the long way
            // round (P-1 hops) on the usable orientation.
            hops_[0] = total_hops;
            hops_[1] = 0;
            chainForward_[0] = fwd_ok;
        }
        stats_.syncCount = hops_[0] + packets_ - 1;
        stats_.bytesPerLink = packetBytes_ * packets_;
        launch(hops_[1] > 0 ? 2 : 1);
    }

  protected:
    int
    stepCount(int chain) const override
    {
        return hops_[chain] + packets_ - 1;
    }

    void
    startStep(int chain, int stage) override
    {
        const int hops = hops_[chain];
        const bool forward = chainForward_[chain];
        // Active packet-hops in this stage.
        const int p_lo = std::max(0, stage - (hops - 1));
        const int p_hi = std::min(packets_ - 1, stage);
        const int count = p_hi - p_lo + 1;
        Join *join = stepJoin(chain, stage, count);
        const int size = ring_.size();
        for (int p = p_lo; p <= p_hi; ++p) {
            const int hop = stage - p;
            const int pos = forward
                                ? (rootPos_ + hop) % size
                                : (rootPos_ - hop + 2 * size) % size;
            transfer(pos, forward, packetBytes_, dstHbmDemand_, join);
        }
    }

  private:
    int rootPos_;
    double dstHbmDemand_;
    int packets_ = 1;
    Bytes packetBytes_ = 0;
    int hops_[2] = {0, 0};
    bool chainForward_[2] = {true, false};
};

/** One synchronized rotation of all chips' blocks. */
class ShiftOp : public RingOpBase
{
  public:
    ShiftOp(Cluster &cluster, const Ring &ring, Bytes block, bool forward,
            int lane, CommDone done)
        : RingOpBase(cluster, ring, lane, forward ? "shift+" : "shift-",
                     std::move(done)),
          block_(block), forward_(forward)
    {
        // Degraded-ring fallback: if the requested orientation has a
        // dead link, one rotation forward equals P-1 rotations
        // backward, so the shift still completes (at P-1x the cost) on
        // the surviving orientation.
        if (!chainUsable(cluster, ring, forward_)) {
            if (!chainUsable(cluster, ring, !forward_))
                failUnroutable(cluster, ring, name_);
            forward_ = !forward_;
            steps_ = ring.size() - 1;
        }
        stats_.syncCount = steps_;
        stats_.bytesPerLink = block * steps_;
        launch(1);
    }

  protected:
    int
    stepCount(int) const override
    {
        return steps_;
    }

    void
    startStep(int chain, int step) override
    {
        Join *join = stepJoin(chain, step, ring_.size());
        for (int pos = 0; pos < ring_.size(); ++pos)
            transfer(pos, forward_, block_, 1.0, join);
    }

  private:
    Bytes block_;
    bool forward_;
    int steps_ = 1;
};

} // namespace

void
ringAllGather(Cluster &cluster, const Ring &ring, Bytes shard_bytes,
              int lane, CommDone done)
{
    if (ring.size() <= 1 || shard_bytes <= 0) {
        completeEmpty(cluster, std::move(done));
        return;
    }
    new ShardCollectiveOp(cluster, ring, shard_bytes, 1.0, lane,
                          "allgather", std::move(done));
}

void
ringReduceScatter(Cluster &cluster, const Ring &ring, Bytes shard_bytes,
                  int lane, CommDone done)
{
    if (ring.size() <= 1 || shard_bytes <= 0) {
        completeEmpty(cluster, std::move(done));
        return;
    }
    // Accumulation at the destination reads the partial sum back, hence
    // the doubled destination-HBM demand.
    new ShardCollectiveOp(cluster, ring, shard_bytes, 2.0, lane,
                          "reducescatter", std::move(done));
}

namespace {

/** One fail-stop-aware attempt of `runRecoverableCollective`: a kill
 *  it depends on reports a `FailStop` through @p fail. */
void
startShardCollective(Cluster &cluster, CollKind kind, const Ring &ring,
                     Bytes shard_bytes, int lane, CommDone done,
                     CommFail fail)
{
    if (ring.size() <= 1 || shard_bytes <= 0) {
        completeEmpty(cluster, std::move(done));
        return;
    }
    // As in ringReduceScatter, the destination reads the partial sum
    // back, doubling its HBM demand.
    const bool reduce = kind == CollKind::kReduceScatter;
    new ShardCollectiveOp(cluster, ring, shard_bytes, reduce ? 2.0 : 1.0,
                          lane, reduce ? "reducescatter" : "allgather",
                          std::move(done), std::move(fail));
}

} // namespace

void
runRecoverableCollective(TorusMesh &mesh, CollKind kind,
                         bool row_ring, int index, Bytes shard_bytes,
                         int lane, RecoveryDone done)
{
    TorusMesh *mesh_p = &mesh;
    Cluster &cluster = mesh.cluster();
    const Time begin = cluster.sim().now();

    CommDone first_ok = [mesh_p, begin, done](const CommStats &stats) {
        RecoveryOutcome out;
        out.stats = stats;
        out.totalTime = mesh_p->cluster().sim().now() - begin;
        done(out);
    };
    CommFail first_fail = [mesh_p, kind, row_ring, index, shard_bytes,
                           lane, begin, done](const FailStop &err) {
        Cluster &cl = mesh_p->cluster();
        if (err.deadRingPos < 0)
            panic("runRecoverableCollective: error without a ring "
                  "position to evict");
        StatsRegistry &st = cl.stats();
        if (st.enabled())
            st.add("collective/" + err.op + "/retry", 1.0);
        // Rebuild the ring around the corpse: the surviving chips keep
        // their direct links, the hop through the dead chip becomes a
        // store-and-forward detour (rowRingWithout/colRingWithout).
        Ring rebuilt =
            row_ring ? mesh_p->rowRingWithout(index, err.deadRingPos)
                     : mesh_p->colRingWithout(index, err.deadRingPos);
        CommDone retry_ok = [mesh_p, begin, err,
                             done](const CommStats &stats) {
            RecoveryOutcome out;
            out.stats = stats;
            out.retried = true;
            out.failure = err;
            out.totalTime = mesh_p->cluster().sim().now() - begin;
            done(out);
        };
        // One retry is the recovery budget: a second fail-stop during
        // the retry means the survivor set changed again mid-recovery,
        // which is checkpoint-restart territory, not ring surgery. The
        // audit text names both corpses — the failure the ring was
        // rebuilt around and the fresh one on the rebuilt ring — with
        // their ring positions, so the operator can line the pair up
        // against the fault scenario without replaying the run.
        CommFail retry_fail = [err](const FailStop &err2) {
            fatal("%s: retry on the rebuilt ring also hit a dead "
                  "resource — first failure %s (ring position %d, chip "
                  "%d, detected at %g s), second failure %s (rebuilt-"
                  "ring position %d, chip %d, detected at %g s) — one "
                  "retry is the recovery budget; restart from the last "
                  "checkpoint on the surviving mesh",
                  err2.op.c_str(), err.deadResource.c_str(),
                  err.deadRingPos, err.deadChip, err.detectedAt,
                  err2.deadResource.c_str(), err2.deadRingPos,
                  err2.deadChip, err2.detectedAt);
        };
        startShardCollective(cl, kind, rebuilt, shard_bytes, lane,
                             std::move(retry_ok), std::move(retry_fail));
    };

    const Ring &ring = row_ring ? mesh.rowRing(index) : mesh.colRing(index);
    startShardCollective(cluster, kind, ring, shard_bytes, lane,
                         std::move(first_ok), std::move(first_fail));
}

void
ringBroadcast(Cluster &cluster, const Ring &ring, int root_pos,
              Bytes total_bytes, int packets, int lane, CommDone done)
{
    if (ring.size() <= 1 || total_bytes <= 0) {
        completeEmpty(cluster, std::move(done));
        return;
    }
    new PipelinedChainOp(cluster, ring, root_pos, total_bytes, packets,
                         1.0, lane, "broadcast", std::move(done));
}

void
ringReduce(Cluster &cluster, const Ring &ring, int root_pos,
           Bytes total_bytes, int packets, int lane, CommDone done)
{
    if (ring.size() <= 1 || total_bytes <= 0) {
        completeEmpty(cluster, std::move(done));
        return;
    }
    new PipelinedChainOp(cluster, ring, root_pos, total_bytes, packets,
                         2.0, lane, "reduce", std::move(done));
}

void
ringAllReduce(Cluster &cluster, const Ring &ring, Bytes total_bytes,
              int lane, CommDone done)
{
    if (ring.size() <= 1 || total_bytes <= 0) {
        completeEmpty(cluster, std::move(done));
        return;
    }
    const Bytes shard = total_bytes / ring.size();
    // Ring copy keeps the AllGather phase valid even if the caller's
    // Ring was a temporary.
    Ring ring_copy = ring;
    ringReduceScatter(
        cluster, ring_copy, shard, lane,
        [&cluster, ring_copy, shard, lane,
         done = std::move(done)](const CommStats &rds) mutable {
            ringAllGather(cluster, ring_copy, shard, lane,
                          [rds, done = std::move(done)](
                              const CommStats &ag) {
                              CommStats both = rds;
                              both += ag;
                              done(both);
                          });
        });
}

void
ringShift(Cluster &cluster, const Ring &ring, Bytes block_bytes,
          bool forward, int lane, CommDone done)
{
    if (ring.size() <= 1 || block_bytes <= 0) {
        completeEmpty(cluster, std::move(done));
        return;
    }
    new ShiftOp(cluster, ring, block_bytes, forward, lane, std::move(done));
}

} // namespace meshslice
