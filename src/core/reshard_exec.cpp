#include "core/reshard_exec.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/join.hpp"
#include "util/logging.hpp"

namespace meshslice {

namespace {

/** One flow of a launch -> flows -> barrier transaction. */
struct TxFlow
{
    Bytes bytes = 0;
    std::vector<Demand> demands;
    /** Span name: "<label> <src>-><chip>", or "<label> c<chip>" for a
     *  flow with no source chip (src < 0). */
    const char *label = "";
    int src = -1;
    /** Chip of the flow's span node. */
    int chip = -1;
};

/** Span names and categories of one transaction kind. */
struct TxSpans
{
    const char *launch;
    const char *sync;
    SpanCategory launchCat;
    SpanCategory flowCat;
    SpanCategory syncCat;
    /** Chip of the launch node (-1 = none). */
    int launchChip;
};

/**
 * The one checkpoint / re-shard transaction: a launch overhead, then
 * the flows @p flows builds streaming concurrently, a join, and a
 * closing barrier of one sync latency; @p done receives the end-to-end
 * span. @p flows runs when the launch completes, so the resources it
 * registers appear at launch time. The profiler sees a launch node,
 * one node per flow and a sync node, which becomes the task's exit and
 * the completion's chain. A recovery scope open at the call makes
 * every node a recovery detour.
 */
void
runTransaction(Cluster &cluster, const TxSpans &spans,
               std::function<std::vector<TxFlow>()> flows,
               std::function<void(Time)> done)
{
    struct State
    {
        TxSpans spans;
        std::function<void(Time)> done;
        Time begin = 0.0;
        Time xferBegin = 0.0;
        bool profiling = false;
        int profTask = -1;
        int launchNode = -1;
        std::vector<int> flowNodes;
    };
    Cluster *cl = &cluster;
    SpanRecorder &prof = cluster.profiler();
    auto st = std::make_shared<State>();
    st->spans = spans;
    st->done = std::move(done);
    st->begin = cluster.sim().now();
    st->profiling = prof.enabled();

    // Snapshot the ambient task scope now: everything below runs in
    // event callbacks, outside the synchronous task body.
    std::vector<int> prof_deps;
    if (st->profiling) {
        st->profTask = prof.currentTask();
        prof_deps = prof.ambientDeps();
        if (prof.inRecovery()) {
            st->spans.launchCat = SpanCategory::kRecovery;
            st->spans.flowCat = SpanCategory::kRecovery;
            st->spans.syncCat = SpanCategory::kRecovery;
            const int rec = prof.recoveryDep();
            if (rec >= 0 &&
                std::find(prof_deps.begin(), prof_deps.end(), rec) ==
                    prof_deps.end())
                prof_deps.push_back(rec);
        }
    }

    cluster.sim().scheduleAfter(
        cluster.config().launchOverhead,
        [cl, st, flows = std::move(flows),
         prof_deps = std::move(prof_deps)]() mutable {
            Simulator &sim = cl->sim();
            if (st->profiling)
                st->launchNode = cl->profiler().addNode(
                    st->spans.launch, st->spans.launchCat, st->begin,
                    sim.now(), std::move(prof_deps), st->spans.launchChip);
            st->xferBegin = sim.now();
            std::vector<TxFlow> txs = flows();

            // The +1 guard signal lets an empty transaction still reach
            // the barrier.
            Join *join = Join::create(
                static_cast<int>(txs.size()) + 1, [cl, st] {
                    const Time xfer_end = cl->sim().now();
                    cl->sim().scheduleAfter(
                        cl->config().syncLatency, [cl, st, xfer_end] {
                            const Time now = cl->sim().now();
                            if (!st->profiling) {
                                st->done(now - st->begin);
                                return;
                            }
                            SpanRecorder &prof = cl->profiler();
                            std::vector<int> deps = st->flowNodes;
                            if (deps.empty() && st->launchNode >= 0)
                                deps.push_back(st->launchNode);
                            const int sync = prof.addNode(
                                st->spans.sync, st->spans.syncCat,
                                xfer_end, now, std::move(deps), -1);
                            prof.addTaskExit(st->profTask, sync);
                            prof.beginChain(st->profTask, {sync});
                            st->done(now - st->begin);
                            prof.endChain();
                        });
                });
            for (TxFlow &tx : txs) {
                auto flow_done = [cl, st, join, label = tx.label,
                                  src = tx.src, chip = tx.chip] {
                    if (st->profiling) {
                        SpanRecorder &prof = cl->profiler();
                        std::vector<int> deps;
                        if (st->launchNode >= 0)
                            deps.push_back(st->launchNode);
                        const int node = prof.addNode(
                            src >= 0
                                ? strprintf("%s %d->%d", label, src, chip)
                                : strprintf("%s c%d", label, chip),
                            st->spans.flowCat, st->xferBegin,
                            cl->sim().now(), std::move(deps), chip);
                        prof.setNodeResource(node,
                                             cl->net().lastFinishedFlow());
                        st->flowNodes.push_back(node);
                    }
                    join->signal();
                };
                cl->net().startFlow(static_cast<double>(tx.bytes),
                                    std::move(tx.demands),
                                    std::move(flow_done));
            }
            join->signal();
        });
}

/**
 * The flows of re-shard @p plan. Every move demands the source chip's
 * egress NIC, the destination's ingress NIC and both HBMs; with
 * @p dead_chip >= 0 a move sourced at the corpse instead streams from
 * the shared `ckpt.restore` resource into the destination's NIC and
 * HBM.
 */
std::vector<TxFlow>
reshardFlows(Cluster &cl, const ReshardPlan &plan, int dead_chip,
             Rate restore_bandwidth)
{
    // Per-chip NIC resources, created lazily for the chips this plan
    // actually touches. Ingress and egress are independent directions,
    // mirroring max(maxChipIngress, maxChipEgress) in the analytic
    // model. The "ici." prefix keeps them in the link resource class
    // for what-if scaling.
    const Rate nic = reshardChipRate(cl.config());
    std::unordered_map<int, ResourceId> nics;
    auto nic_of = [&](int chip, bool in) {
        const int key = chip * 2 + (in ? 1 : 0);
        auto it = nics.find(key);
        if (it == nics.end())
            it = nics.emplace(key, cl.net().addResource(
                                       strprintf("ici.rs.%s.c%d",
                                                 in ? "in" : "out", chip),
                                       nic))
                     .first;
        return it->second;
    };
    // The restore path stands in for the checkpoint target's egress
    // (host DMA / DCN). It is registered only when a corpse-sourced
    // move exists, so the plain re-shard's resource census is
    // unchanged.
    ResourceId restore = -1;
    std::vector<TxFlow> flows;
    flows.reserve(plan.moves.size());
    for (const ReshardMove &mv : plan.moves) {
        cl.noteCommBytes(mv.bytes);
        TxFlow tx;
        tx.bytes = mv.bytes;
        tx.src = mv.srcChip;
        tx.chip = mv.dstChip;
        if (mv.srcChip == dead_chip && dead_chip >= 0) {
            if (restore < 0)
                restore = cl.net().addResource("ckpt.restore",
                                               restore_bandwidth);
            tx.label = "restore";
            tx.demands = {Demand{restore, 1.0},
                          Demand{nic_of(mv.dstChip, true), 1.0},
                          Demand{cl.hbmOf(mv.dstChip), 1.0}};
        } else {
            tx.label = "reshard";
            tx.demands = {Demand{nic_of(mv.srcChip, false), 1.0},
                          Demand{nic_of(mv.dstChip, true), 1.0},
                          Demand{cl.hbmOf(mv.srcChip), 1.0},
                          Demand{cl.hbmOf(mv.dstChip), 1.0}};
        }
        flows.push_back(std::move(tx));
    }
    return flows;
}

/** `runReshard` (dead_chip < 0) and `runRecoveryReshard`. */
void
startReshard(Cluster &cluster, const ReshardPlan &plan, int dead_chip,
             Rate restore_bandwidth, std::function<void(Time)> done)
{
    for (const ReshardMove &mv : plan.moves) {
        if (mv.srcChip < 0 || mv.srcChip >= cluster.numChips() ||
            mv.dstChip < 0 || mv.dstChip >= cluster.numChips())
            panic("runReshard: move %d->%d outside the %d-chip cluster",
                  mv.srcChip, mv.dstChip, cluster.numChips());
    }
    const TxSpans spans{"reshard launch", "reshard sync",
                        SpanCategory::kLaunch, SpanCategory::kComm,
                        SpanCategory::kSync,
                        plan.moves.empty() ? -1 : plan.moves.front().dstChip};
    Cluster *cl = &cluster;
    runTransaction(
        cluster, spans,
        [cl, plan, dead_chip, restore_bandwidth] {
            return reshardFlows(*cl, plan, dead_chip, restore_bandwidth);
        },
        std::move(done));
}

} // namespace

void
runReshard(Cluster &cluster, const ReshardPlan &plan,
           std::function<void(Time)> done)
{
    startReshard(cluster, plan, -1, 0.0, std::move(done));
}

void
runRecoveryReshard(Cluster &cluster, const ReshardPlan &plan, int dead_chip,
                   Rate restore_bandwidth, std::function<void(Time)> done)
{
    if (dead_chip < 0 || dead_chip >= cluster.numChips())
        panic("runRecoveryReshard: dead chip %d outside the %d-chip "
              "cluster", dead_chip, cluster.numChips());
    if (!(restore_bandwidth > 0.0))
        panic("runRecoveryReshard: restore bandwidth must be positive "
              "(got %g)", restore_bandwidth);
    startReshard(cluster, plan, dead_chip, restore_bandwidth,
                 std::move(done));
}

void
runCheckpoint(Cluster &cluster, const CheckpointSpec &spec,
              std::function<void(Time)> done)
{
    if (spec.bytesPerChip <= 0)
        panic("runCheckpoint: bytesPerChip must be positive (got %lld)",
              static_cast<long long>(spec.bytesPerChip));
    if (!(spec.targetBandwidth > 0.0))
        panic("runCheckpoint: target bandwidth must be positive (got %g)",
              spec.targetBandwidth);
    const TxSpans spans{"checkpoint launch", "checkpoint sync",
                        SpanCategory::kCheckpoint, SpanCategory::kCheckpoint,
                        SpanCategory::kCheckpoint, -1};
    Cluster *cl = &cluster;
    runTransaction(
        cluster, spans,
        [cl, spec] {
            // Every chip streams its state to the shared target.
            const ResourceId target =
                cl->net().addResource("ckpt.target", spec.targetBandwidth);
            std::vector<TxFlow> flows(static_cast<size_t>(cl->numChips()));
            for (int chip = 0; chip < cl->numChips(); ++chip) {
                TxFlow &tx = flows[static_cast<size_t>(chip)];
                tx.bytes = spec.bytesPerChip;
                tx.demands = {Demand{cl->hbmOf(chip), 1.0},
                              Demand{target, 1.0}};
                tx.label = "ckpt write";
                tx.chip = chip;
            }
            return flows;
        },
        std::move(done));
}

} // namespace meshslice
