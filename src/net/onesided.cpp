#include "net/onesided.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "net/comm_op.hpp"
#include "sim/fault.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** Store-and-forward hops of a detour route through an adjacent ring
 *  (down, across, up) — the detour resource gets 1/hops bandwidth,
 *  matching the collectives' detour-ring model. */
constexpr double kGetDetourHops = 3.0;

/** Directed links of the @p forward orientation path from ring
 *  position @p src to @p dst. */
std::vector<ResourceId>
pathLinks(const Ring &ring, int src, int dst, bool forward)
{
    const int n = ring.size();
    std::vector<ResourceId> links;
    if (forward) {
        for (int p = src; p != dst; p = (p + 1) % n)
            links.push_back(ring.fwd[static_cast<size_t>(p)]);
    } else {
        for (int p = src; p != dst; p = (p - 1 + n) % n)
            links.push_back(ring.bwd[static_cast<size_t>(p)]);
    }
    return links;
}

bool
allAvailable(Cluster &cluster, const std::vector<ResourceId> &links)
{
    for (ResourceId id : links)
        if (!cluster.net().isAvailable(id))
            return false;
    return true;
}

/**
 * One self-deleting RDMA get: a single fluid flow over the routed path
 * plus both endpoints' HBM and NIC queues. When the fault scenario
 * kills a watched resource, the get aborts after the detection latency
 * and either retries once over the corpse's shared detour resource
 * (source or path failure) or writes the transfer off (destination
 * died — its whole tile is gone; completing keeps the graph draining).
 */
class OneSidedGetOp : public CommOp
{
  public:
    OneSidedGetOp(OneSidedComm &comm, const Ring &ring, int src_pos,
                  int dst_pos, Bytes bytes, int lane, CommDone done)
        : CommOp(comm.mesh().cluster(), std::move(done)), comm_(comm),
          ring_(ring), srcPos_(src_pos), dstPos_(dst_pos), bytes_(bytes),
          lane_(lane)
    {
        const int n = ring_.size();
        const int fwd_hops = (dstPos_ - srcPos_ + n) % n;
        const int bwd_hops = n - fwd_hops;
        // Degraded/dead-link-aware routing: shortest orientation first,
        // the long way round if the short one has an unavailable link.
        // Neither available: take the short path anyway — the flow
        // parks through transient capacity windows, and a *kill* on the
        // path is handled by the fail-stop watch below.
        bool forward = fwd_hops <= bwd_hops;
        std::vector<ResourceId> links =
            pathLinks(ring_, srcPos_, dstPos_, forward);
        if (!allAvailable(cluster_, links)) {
            std::vector<ResourceId> other =
                pathLinks(ring_, srcPos_, dstPos_, !forward);
            if (allAvailable(cluster_, other)) {
                forward = !forward;
                links = std::move(other);
            }
        }
        // Membership cache: a corpse already detected by an earlier get
        // (or the executor's death watch) is not re-detected — the
        // detection latency is paid once per corpse, not once per get.
        if (comm_.isKnownDead(dstChip())) {
            // The pulling tile itself is a known corpse: write the get
            // off immediately so the survivors' graph drains.
            cluster_.sim().scheduleAfter(0.0, [this] {
                StatsRegistry &st = cluster_.stats();
                if (st.enabled())
                    st.add("onesided/get/writeoff", 1.0);
                complete(CommStats{}, {});
            });
            return;
        }
        if (comm_.isKnownDead(srcChip())) {
            redirectToReplica();
            return;
        }
        watchAttempt(srcChip(), links);
        startFlow(srcChip(), std::move(links));
    }

  private:
    int srcChip() const { return ring_.chips[static_cast<size_t>(srcPos_)]; }
    int dstChip() const { return ring_.chips[static_cast<size_t>(dstPos_)]; }

    /** Kill watch over what one attempt depends on: both endpoints'
     *  HBM and the routed @p links (a retry's detour resource is
     *  registered post-arm, so it cannot die). */
    void
    watchAttempt(int src_chip, const std::vector<ResourceId> &links)
    {
        armKillWatch([&](std::vector<ResourceId> &watch) {
            watch.push_back(cluster_.hbmOf(src_chip));
            watch.push_back(cluster_.hbmOf(dstChip()));
            watch.insert(watch.end(), links.begin(), links.end());
        });
    }

    void
    startFlow(int src_chip, std::vector<ResourceId> links)
    {
        curSrc_ = src_chip;
        links_ = std::move(links);
        const int dst = dstChip();
        std::vector<Demand> demands;
        demands.reserve(links_.size() + 4);
        for (ResourceId id : links_)
            demands.push_back(Demand{id, 1.0});
        if (src_chip != dst) {
            demands.push_back(Demand{cluster_.hbmOf(src_chip), 1.0});
            demands.push_back(Demand{cluster_.nicOf(src_chip), 1.0});
        }
        demands.push_back(Demand{cluster_.hbmOf(dst), 1.0});
        demands.push_back(Demand{cluster_.nicOf(dst), 1.0});
        cluster_.noteCommBytes(bytes_);
        flow_ = cluster_.net().startFlow(
            static_cast<double>(bytes_), std::move(demands),
            [this] { landed(); });
    }

    /** The attempt's flow finished: assemble stats and self-delete. */
    void
    landed()
    {
        disarmKillWatch();
        CommStats stats;
        stats.total = cluster_.sim().now() - begin_;
        stats.transfer = stats.total;
        stats.bytesPerLink = bytes_;
        const ChipConfig &cfg = cluster_.config();
        const double solo_rate =
            cfg.iciLinkBandwidth / cfg.logicalMeshContention;
        stats.bubble = std::max(
            0.0, stats.transfer - static_cast<double>(bytes_) / solo_rate);
        StatsRegistry &st = cluster_.stats();
        if (st.enabled()) {
            st.add("onesided/get/count", 1.0);
            st.add("onesided/get/bytes", static_cast<double>(bytes_));
            st.observe("onesided/get/total_s", stats.total);
            if (retried_)
                st.add("onesided/get/retry", 1.0);
        }
        if (cluster_.trace().enabled()) {
            cluster_.trace().record("get", "comm", dstChip(), lane_,
                                    begin_, cluster_.sim().now());
        }
        std::vector<int> exits;
        if (profEnabled_) {
            SpanRecorder &prof = cluster_.profiler();
            // The retry leg is a recovery detour rooted at the abort
            // marker; a clean get is a comm span.
            const int node = prof.addNode(
                strprintf("get c%d<-c%d%s", dstChip(), srcChip(),
                          retried_ ? " retry" : ""),
                retried_ ? SpanCategory::kRecovery
                         : profCat(SpanCategory::kComm),
                retried_ ? retryBegin_ : begin_, cluster_.sim().now(),
                retried_ && abortNode_ >= 0 ? std::vector<int>{abortNode_}
                                            : profDeps_,
                dstChip());
            prof.setNodeResource(node, cluster_.net().lastFinishedFlow());
            prof.addTaskExit(profTask_, node);
            exits.push_back(node);
        }
        complete(stats, std::move(exits));
    }

    /**
     * The detection timeout fired. Identify the corpse, cancel the
     * in-flight transfer, and take the per-get recovery action: a dead
     * *destination* writes the get off (the pulling tile is gone, so
     * completing lets the survivors' graph drain); anything else
     * retries once over the corpse's shared detour resource, reading a
     * dead source's slice from its ring-neighbour replica.
     */
    void
    onKillDetected() override
    {
        const ResourceId src_hbm = cluster_.hbmOf(curSrc_);
        const ResourceId dst_hbm = cluster_.hbmOf(dstChip());
        // Source first (unless the replica is local), then the
        // destination, then the route in path order.
        std::vector<ResourceId> suspects;
        if (curSrc_ != dstChip())
            suspects.push_back(src_hbm);
        suspects.push_back(dst_hbm);
        const size_t first_link = suspects.size();
        suspects.insert(suspects.end(), links_.begin(), links_.end());
        const int dead = cluster_.faults()->firstKilled(suspects);
        if (dead < 0)
            panic("onesided get: fail-stop abort fired but no killed "
                  "resource was found on the route");
        const ResourceId corpse = suspects[static_cast<size_t>(dead)];
        int corpse_chip = corpse == src_hbm ? curSrc_ : dstChip();
        if (static_cast<size_t>(dead) >= first_link) {
            // fwd[p]/bwd[p] belong to the chip at position p.
            const int n = ring_.size();
            int p = srcPos_;
            for (size_t h = first_link; h < static_cast<size_t>(dead); ++h)
                p = routeForward() ? (p + 1) % n : (p - 1 + n) % n;
            corpse_chip = ring_.chips[static_cast<size_t>(p)];
        }
        // First detection broadcasts membership: gets issued from here
        // on skip their own detection window for this corpse.
        if (corpse == src_hbm || corpse == dst_hbm)
            comm_.markDead(corpse_chip);
        cluster_.net().cancelFlow(flow_);
        StatsRegistry &st = cluster_.stats();
        if (st.enabled())
            st.add("onesided/get/abort", 1.0);

        if (profEnabled_) {
            abortNode_ = cluster_.profiler().addNode(
                strprintf("get c%d<-c%d abort", dstChip(), srcChip()),
                SpanCategory::kRecovery, begin_, cluster_.sim().now(),
                profDeps_, dstChip());
        }

        if (retried_) {
            fatal("onesided get (chip %d <- chip %d): retry over the "
                  "detour also hit a dead resource (%s, detected at "
                  "%g s) — one retry is the recovery budget; restart "
                  "from the last checkpoint on the surviving mesh",
                  dstChip(), srcChip(),
                  cluster_.net().resourceName(corpse).c_str(),
                  cluster_.sim().now());
        }
        if (corpse == dst_hbm) {
            // Destination tile is dead: its pull can never land. Write
            // the transfer off so the graph drains; the dead chip's
            // schedule completes vacuously from here on.
            if (st.enabled())
                st.add("onesided/get/writeoff", 1.0);
            CommStats stats;
            stats.total = cluster_.sim().now() - begin_;
            stats.transfer = stats.total;
            std::vector<int> exits;
            if (abortNode_ >= 0) {
                cluster_.profiler().addTaskExit(profTask_, abortNode_);
                exits.push_back(abortNode_);
            }
            complete(stats, std::move(exits));
            return;
        }

        // Retry once over the corpse's shared detour resource. A dead
        // source's slice is re-read from its ring-neighbour replica
        // (the chip that would have forwarded it in a ring collective);
        // a dead path link keeps the original source and just routes
        // around the failure.
        retried_ = true;
        retryBegin_ = cluster_.sim().now();
        retryOverDetour(corpse == src_hbm ? replicaChip() : srcChip(),
                        corpse_chip);
    }

    /** The source was already a known corpse when this get was issued:
     *  skip the doomed attempt (no second detection window) and read
     *  the slice from its ring-neighbour replica over the corpse's
     *  shared detour. Counts as the get's one retry, so a further kill
     *  on the replica path still exhausts the budget. */
    void
    redirectToReplica()
    {
        retried_ = true;
        retryBegin_ = begin_;
        StatsRegistry &st = cluster_.stats();
        if (st.enabled())
            st.add("onesided/get/redirect", 1.0);
        retryOverDetour(replicaChip(), srcChip());
    }

    /** The source's ring-neighbour replica: the chip that would have
     *  forwarded its slice in a ring collective. On a 2-ring the only
     *  survivor is the destination itself: the replica is local and
     *  the "get" is an HBM-side re-read. */
    int
    replicaChip() const
    {
        const int n = ring_.size();
        int pos = (srcPos_ + 1) % n;
        if (pos == dstPos_)
            pos = (srcPos_ - 1 + n) % n;
        return ring_.chips[static_cast<size_t>(pos)];
    }

    /** The one retry: read from @p retry_src over the shared detour
     *  around @p corpse_chip, watching the retry's endpoints. */
    void
    retryOverDetour(int retry_src, int corpse_chip)
    {
        const ResourceId detour = comm_.detourAround(corpse_chip);
        watchAttempt(retry_src, {});
        startFlow(retry_src, {detour});
    }

    /** Orientation of `links_` (true = fwd). Only valid when the path
     *  is non-empty; used to map a dead link back to its owner chip. */
    bool
    routeForward() const
    {
        return !links_.empty() &&
               links_[0] == ring_.fwd[static_cast<size_t>(srcPos_)];
    }

    OneSidedComm &comm_;
    const Ring ring_; // copy: caller's Ring may be a temporary
    int srcPos_;
    int dstPos_;
    Bytes bytes_;
    int lane_;
    Time retryBegin_ = 0.0;
    /** Source chip of the current attempt (the replica's after a
     *  dead-source retry). */
    int curSrc_ = -1;
    /** Route of the current attempt ({detour} on the retry leg). */
    std::vector<ResourceId> links_;
    FlowId flow_ = -1;
    bool retried_ = false;
    int abortNode_ = -1;
};

} // namespace

ResourceId
OneSidedComm::detourAround(int chip)
{
    auto it = detours_.find(chip);
    if (it != detours_.end())
        return it->second;
    Cluster &cluster = mesh_.cluster();
    const double bw = cluster.config().iciLinkBandwidth /
                      cluster.config().logicalMeshContention /
                      kGetDetourHops;
    const ResourceId id = cluster.net().addResource(
        strprintf("link.detour.get.chip%d", chip), bw);
    detours_.emplace(chip, id);
    return id;
}

void
OneSidedComm::get(GetAxis axis, int dst_r, int dst_c, int src_r, int src_c,
                  Bytes bytes, int lane, CommDone done)
{
    Cluster &cluster = mesh_.cluster();
    if (axis == GetAxis::kRow && src_r != dst_r)
        panic("OneSidedComm::get: row-axis get between rows %d and %d",
              src_r, dst_r);
    if (axis == GetAxis::kCol && src_c != dst_c)
        panic("OneSidedComm::get: col-axis get between cols %d and %d",
              src_c, dst_c);
    if (bytes <= 0 || (src_r == dst_r && src_c == dst_c)) {
        cluster.sim().scheduleAfter(0.0, [done = std::move(done)] {
            done(CommStats{});
        });
        return;
    }
    const Ring &ring = axis == GetAxis::kRow ? mesh_.rowRing(dst_r)
                                             : mesh_.colRing(dst_c);
    const int src_pos = axis == GetAxis::kRow ? src_c : src_r;
    const int dst_pos = axis == GetAxis::kRow ? dst_c : dst_r;
    new OneSidedGetOp(*this, ring, src_pos, dst_pos, bytes, lane,
                      std::move(done));
}

} // namespace meshslice
