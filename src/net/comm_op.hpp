/**
 * @file
 * The lifecycle of a self-deleting, fail-stop-aware communication op —
 * the ring collectives of `net/collectives` and the one-sided gets of
 * `net/onesided`. `CommOp` holds the four pieces every such op needs,
 * so none of them can be left out:
 *
 *  - the **span snapshot**: an op is constructed inside a task body, a
 *    chain scope or a recovery scope, but records its span nodes from
 *    event callbacks later, so the ambient profiler context is captured
 *    at construction (an op constructed inside a recovery scope marks
 *    every node as a recovery detour);
 *  - **abandon tracking**: an op stranded by a phase abandonment (its
 *    remaining events cancelled by `Simulator::requestStop`) is
 *    reclaimed by the ambient `AbandonRegistry`'s sweep — free when no
 *    registry is installed;
 *  - the **kill watch** (`FaultInjector::watchKills`): at the detection
 *    of the first kill among the resources the op depends on,
 *    `onKillDetected()` runs;
 *  - the **chain-scoped completion**: the op deletes itself and runs
 *    its continuation inside a chain scope on its final span nodes, so
 *    a follow-on op constructed in the callback depends on them.
 *
 * Internal to `src/net`.
 */
#ifndef MESHSLICE_NET_COMM_OP_HPP_
#define MESHSLICE_NET_COMM_OP_HPP_

#include <cstdint>
#include <utility>
#include <vector>

#include "hw/cluster.hpp"
#include "net/collectives.hpp"
#include "sim/abandon.hpp"

namespace meshslice {

class CommOp
{
  public:
    CommOp(const CommOp &) = delete;
    CommOp &operator=(const CommOp &) = delete;

  protected:
    CommOp(Cluster &cluster, CommDone done)
        : cluster_(cluster), begin_(cluster.sim().now()),
          done_(std::move(done))
    {
        SpanRecorder &prof = cluster.profiler();
        profEnabled_ = prof.enabled();
        if (profEnabled_) {
            profTask_ = prof.currentTask();
            profDeps_ = prof.ambientDeps();
            profRecovery_ = prof.inRecovery();
            if (prof.recoveryDep() >= 0)
                profDeps_.push_back(prof.recoveryDep());
        }
        if (AbandonRegistry *reg = AbandonRegistry::current()) {
            abandonRegistry_ = reg;
            abandonId_ = reg->track([this] { delete this; });
        }
    }

    virtual ~CommOp()
    {
        if (abandonRegistry_ != nullptr)
            abandonRegistry_->untrack(abandonId_);
    }

    /**
     * Arm the kill watch over the resources @p fill appends to a list.
     * The kill-free check comes first, so a kill-free run allocates and
     * schedules nothing and stays bit-identical to a run without an
     * injector.
     */
    template <class Fill>
    void
    armKillWatch(Fill fill)
    {
        FaultInjector *inj = cluster_.faults();
        if (inj == nullptr || !inj->hasKills())
            return;
        std::vector<ResourceId> watch;
        fill(watch);
        killWatch_ = inj->watchKills(watch, [this] {
            killWatch_ = EventId{};
            onKillDetected();
        });
    }

    /** True while a kill watch is pending. */
    bool watchingKills() const { return killWatch_.valid(); }

    /** Cancel the pending kill watch: the op finished first. */
    void
    disarmKillWatch()
    {
        if (killWatch_.valid())
            cluster_.sim().cancel(killWatch_);
        killWatch_ = EventId{};
    }

    /** A watched resource's kill was detected. */
    virtual void onKillDetected() = 0;

    /** Delete this op, then run the continuation with @p stats inside
     *  a chain scope on @p exits (no scope when there are none). */
    void
    complete(CommStats stats, std::vector<int> exits)
    {
        Cluster &cl = cluster_;
        const bool prof_chain = profEnabled_ && !exits.empty();
        const int prof_task = profTask_;
        CommDone done = std::move(done_);
        delete this;
        if (prof_chain)
            cl.profiler().beginChain(prof_task, std::move(exits));
        done(stats);
        if (prof_chain)
            cl.profiler().endChain();
    }

    /** Category override for an op constructed inside a recovery scope
     *  (its nodes are recorded after the scope closed). */
    SpanCategory
    profCat(SpanCategory cat) const
    {
        return profRecovery_ ? SpanCategory::kRecovery : cat;
    }

    Cluster &cluster_;
    Time begin_;

    bool profEnabled_ = false;
    int profTask_ = -1;         ///< ambient task scope at construction
    std::vector<int> profDeps_; ///< entry deps (incl. recovery root)
    bool profRecovery_ = false;

  private:
    CommDone done_;
    AbandonRegistry *abandonRegistry_ = nullptr;
    std::uint64_t abandonId_ = 0;
    EventId killWatch_;
};

} // namespace meshslice

#endif // MESHSLICE_NET_COMM_OP_HPP_
