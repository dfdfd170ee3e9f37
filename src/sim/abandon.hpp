/**
 * @file
 * Leak-free abandonment of in-flight simulation phases.
 *
 * The elastic runtime stops a phase mid-flight on a fail-stop abort
 * (`Simulator::requestStop`). At that point heap-allocated, self-
 * deleting simulation objects — `Join` latches waiting on arrivals
 * that will never come, ring collective ops whose remaining steps
 * were cancelled — are orphaned: nobody will ever run the event that
 * would have deleted them. `AbandonRegistry` tracks those objects so
 * an abandoned phase can sweep them before its cluster is destroyed,
 * keeping the address-sanitizer leg leak-clean.
 *
 * Registration is ambient: the runtime installs a registry for the
 * duration of one phase via `ScopedAbandonRegistry`, and self-deleting
 * objects register themselves through `AbandonRegistry::current()`.
 * When no registry is installed (every pre-existing caller: the
 * tuner's parallel candidate sims, the bench reports, plain executor
 * runs) tracking is a null-pointer check and nothing else — event
 * ordering, timing and allocation behaviour are unchanged, so
 * bit-identity contracts are unaffected.
 *
 * Not thread-safe by design: the registry pointer is thread-local and
 * a phase runs its simulator on one thread. Concurrent simulators on
 * other threads see no registry (or their own).
 */
#ifndef MESHSLICE_SIM_ABANDON_HPP_
#define MESHSLICE_SIM_ABANDON_HPP_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>

namespace meshslice {

/** Tracks self-deleting simulation objects for post-abandon cleanup. */
class AbandonRegistry
{
  public:
    AbandonRegistry() = default;
    AbandonRegistry(const AbandonRegistry &) = delete;
    AbandonRegistry &operator=(const AbandonRegistry &) = delete;
    ~AbandonRegistry() { sweep(); }

    /** The ambient registry of this thread, or nullptr. */
    static AbandonRegistry *current() { return current_; }

    /**
     * Track an object; @p deleter destroys it if it is still alive at
     * `sweep()` time. Returns a handle for `untrack`.
     */
    std::uint64_t
    track(std::function<void()> deleter)
    {
        const std::uint64_t id = nextId_++;
        tracked_.emplace(id, std::move(deleter));
        return id;
    }

    /** Forget a tracked object (it completed and deleted itself).
     *  Unknown handles are ignored so objects may untrack after a
     *  sweep already released them. */
    void untrack(std::uint64_t id) { tracked_.erase(id); }

    /** Destroy every still-tracked object. Deleters may untrack other
     *  objects recursively (a swept latch releasing a captured op), so
     *  the map is drained one entry at a time. */
    void
    sweep()
    {
        while (!tracked_.empty()) {
            auto it = tracked_.begin();
            std::function<void()> deleter = std::move(it->second);
            tracked_.erase(it);
            deleter();
        }
    }

    size_t trackedCount() const { return tracked_.size(); }

  private:
    friend class ScopedAbandonRegistry;

    static inline thread_local AbandonRegistry *current_ = nullptr;

    std::uint64_t nextId_ = 1;
    std::unordered_map<std::uint64_t, std::function<void()>> tracked_;
};

/** RAII installer: makes @p reg the thread's ambient registry. */
class ScopedAbandonRegistry
{
  public:
    explicit ScopedAbandonRegistry(AbandonRegistry &reg)
        : previous_(AbandonRegistry::current_)
    {
        AbandonRegistry::current_ = &reg;
    }
    ~ScopedAbandonRegistry() { AbandonRegistry::current_ = previous_; }

    ScopedAbandonRegistry(const ScopedAbandonRegistry &) = delete;
    ScopedAbandonRegistry &operator=(const ScopedAbandonRegistry &) = delete;

  private:
    AbandonRegistry *previous_;
};

} // namespace meshslice

#endif // MESHSLICE_SIM_ABANDON_HPP_
