/**
 * @file
 * Discrete-event simulation core.
 *
 * The MeshSlice cluster simulator replaces the paper's SST-based setup.
 * `Simulator` owns a time-ordered event queue; every other model (links,
 * HBM, compute cores, collectives) schedules callbacks on it. Events that
 * share a timestamp run in scheduling order, which makes runs fully
 * deterministic.
 *
 * The queue is a binary min-heap over (time, sequence) backed by a
 * recycled slot pool for the callbacks.
 * Cancellation is O(1): the slot is invalidated and freed immediately,
 * and the stale heap entry is discarded when it surfaces (it does not
 * count as a processed event). Rate-shared flows reschedule their
 * completion on every rate change, so cancel is a hot operation; the
 * lazy scheme turns what used to be an O(log n) tree erase per
 * reschedule into a pointer swap.
 */
#ifndef MESHSLICE_SIM_SIMULATOR_HPP_
#define MESHSLICE_SIM_SIMULATOR_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace meshslice {

/** Handle used to cancel a scheduled event. */
struct EventId
{
    Time when = 0.0;
    std::uint64_t seq = 0;
    /** Index of the callback's slot in the simulator's slot pool. */
    std::uint32_t slot = 0;

    bool valid() const { return seq != 0; }
};

/**
 * A deterministic discrete-event simulator.
 *
 * Not thread-safe; one instance per simulated cluster. Independent
 * simulators (one per candidate run) may execute concurrently on
 * different threads.
 */
class Simulator
{
  public:
    using Callback = std::function<void()>;

    /** Current simulated time (seconds). */
    Time now() const { return now_; }

    /** Schedule @p fn at absolute time @p when (>= now). */
    EventId schedule(Time when, Callback fn);

    /** Schedule @p fn @p delay seconds from now (delay >= 0). */
    EventId scheduleAfter(Time delay, Callback fn);

    /**
     * Cancel a previously scheduled event.
     * @return true if the event was pending and got removed.
     */
    bool cancel(const EventId &id);

    /** Run until the event queue drains. @return final time. */
    Time run();

    /** Run until @p deadline or until the queue drains. */
    Time runUntil(Time deadline);

    /**
     * Stalled-work watchdog check, run by `run`/`runUntil` whenever the
     * event queue fully drains. Each registered check returns a
     * diagnostic string describing work that is still outstanding (or
     * "" if none). A non-empty diagnostic means the event loop stalled
     * — e.g. a fluid flow parked on a dead link with no fallback, whose
     * completion can never fire — and the simulator aborts via
     * `fatal()` with the dump instead of silently finishing early.
     */
    using QuiescenceCheck = std::function<std::string()>;

    /** Register a watchdog check (the fluid network installs one). */
    void addQuiescenceCheck(QuiescenceCheck check);

    /**
     * Ask the event loop to stop before executing the next event. Used
     * by the elastic runtime's detection watchdog to abandon a phase
     * mid-flight: pending events stay queued (they are simply never
     * run), and the quiescence watchdog is skipped — a stopped run is
     * an abandonment, not a completion, so stalled work is expected.
     * Safe to call from inside an event callback or before `run()`.
     */
    void requestStop() { stopRequested_ = true; }

    /** True once `requestStop()` has been called. Never reset. */
    bool stopRequested() const { return stopRequested_; }

    /** Number of events executed so far (cancelled events never
     *  count, whether cancelled before or after their heap entry
     *  surfaces). */
    std::uint64_t eventsProcessed() const { return processed_; }

    /** Number of currently pending (live, uncancelled) events. */
    size_t pendingEvents() const { return live_; }

  private:
    /** Heap key + slot reference; stale once the slot's seq moved on. */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** One pooled callback; seq == 0 marks the slot free. */
    struct Slot
    {
        Callback fn;
        std::uint64_t seq = 0;
    };

    static bool later(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when > b.when || (a.when == b.when && a.seq > b.seq);
    }

    void pushHeap(HeapEntry entry);
    HeapEntry popHeap();
    void checkQuiescence() const;

    Time now_ = 0.0;
    bool stopRequested_ = false;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t processed_ = 0;
    size_t live_ = 0; ///< heap entries whose slot is still current
    std::vector<HeapEntry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> freeSlots_;
    std::vector<QuiescenceCheck> quiescenceChecks_;
};

} // namespace meshslice

#endif // MESHSLICE_SIM_SIMULATOR_HPP_
