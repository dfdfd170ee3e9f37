/**
 * @file
 * A tiny dependency graph of asynchronous simulation tasks, and the one
 * software-pipeline skeleton every timed GeMM schedule is built from.
 *
 * Timing executors describe a software-pipelined schedule as tasks
 * ("all-rows partial AllGather of slice s", "all-chips partial GeMM of
 * slice s") with dependencies; the graph starts every task as soon as
 * its dependencies complete, which is exactly how overlap emerges in
 * MeshSlice's pipelines (Fig 4). `SlicePipeline` owns the dependency
 * rules of such a pipeline, so a builder only says which operation
 * fills which slot.
 */
#ifndef MESHSLICE_CORE_TASKGRAPH_HPP_
#define MESHSLICE_CORE_TASKGRAPH_HPP_

#include <functional>
#include <vector>

#include "sim/critical_path.hpp"
#include "sim/simulator.hpp"

namespace meshslice {

/**
 * Build with `addTask`, then `start`. Tasks receive a completion
 * callback they must invoke exactly once (possibly asynchronously).
 * The graph object must outlive the simulation run.
 *
 * When a `SpanRecorder` is attached, each task gets a profiler scope:
 * the synchronous part of the task body runs with that scope ambient,
 * so operations started inside register their span nodes as the
 * task's exits, and nodes started by dependent tasks inherit those
 * exits as causal deps — the TaskGraph edges become span-graph edges.
 */
class TaskGraph
{
  public:
    /** A task body: do work, then call `done()`. */
    using TaskFn = std::function<void(std::function<void()> done)>;

    explicit TaskGraph(Simulator &sim, SpanRecorder *prof = nullptr)
        : sim_(sim), prof_(prof && prof->enabled() ? prof : nullptr)
    {}

    /** The attached profiler, or nullptr (also when disabled). */
    SpanRecorder *profiler() const { return prof_; }

    /**
     * Add a task depending on previously added tasks.
     * @return the task id, usable as a dependency of later tasks.
     */
    int addTask(TaskFn fn, std::vector<int> deps = {});

    /** Begin execution; @p all_done fires when every task completed. */
    void start(std::function<void()> all_done);

    /**
     * Start the graph, run the simulator until it drains and return the
     * simulated time from the start to the graph's completion — not to
     * the drain, which a fault window or a watch armed past the
     * schedule may push later. When @p stopped is non-null, a requested
     * stop that abandons the schedule (the elastic runtime's fail-stop
     * handler) sets it and returns the time to the stop. Any other
     * drain with tasks still pending panics, naming @p who.
     */
    Time run(const char *who, bool *stopped = nullptr);

  private:
    struct Task
    {
        TaskFn fn;
        std::vector<int> dependents;
        int blockers = 0;
        bool launched = false;
        bool completed = false;
        int profId = -1; ///< SpanRecorder task scope
    };

    void launchTask(int id);
    void completeTask(int id);

    Simulator &sim_;
    SpanRecorder *prof_ = nullptr;
    std::vector<Task> tasks_;
    std::function<void()> allDone_;
    int remaining_ = 0;
    bool started_ = false;
};

/**
 * The dependency rules of a software-pipelined sliced schedule. Each op
 * (one slice, or one SUMMA compute group) has input `feed` tasks, one
 * `compute` task and output `drain` tasks, each feed and drain on a
 * channel (a mesh direction). Feeds chain per channel and gate their
 * op's compute; drains follow their compute and chain per channel.
 * Add an op's feeds, then its compute, then its drains.
 */
class SlicePipeline
{
  public:
    enum class Mode
    {
        /** Channels run ahead of compute: full comm/compute overlap. */
        kFull,
        /** Strict program order: every task waits for the previous
         *  one (`allowCollectiveOverlap` off, the real-TPUv4 mode). */
        kNone,
        /** A feed also waits for the previous op, and the next compute
         *  for the drains (`allowSendRecvOverlap` off: the XLA
         *  artifact of Sec 5.3.1 serializes SendRecv pipelines). */
        kSerialized,
    };

    /** @p after (a task id, or -1) gates the first task of every chain. */
    SlicePipeline(TaskGraph &graph, Mode mode, int after = -1)
        : graph_(graph), mode_(mode), after_(after)
    {}

    void feed(int channel, TaskGraph::TaskFn fn);
    void compute(TaskGraph::TaskFn fn);
    void drain(int channel, TaskGraph::TaskFn fn);

    /** The tasks the pipeline ends with: the last compute and the
     *  drains that followed it (for fan-ins of whole pipelines). */
    std::vector<int> tail() const;

  private:
    static constexpr int kChannels = 2;

    /** Add @p fn after @p deps, or after `after` when @p deps is empty. */
    int add(TaskGraph::TaskFn fn, std::vector<int> deps);
    /** What the next op waits for (see `Mode`). */
    std::vector<int> gate() const;

    TaskGraph &graph_;
    Mode mode_;
    int after_;
    int last_ = -1; ///< last task added (kNone chains every task)
    int lastCompute_ = -1;
    int feedChain_[kChannels] = {-1, -1};   ///< last feed per channel
    int drainChain_[kChannels] = {-1, -1};  ///< last drain per channel
    int fed_[kChannels] = {-1, -1};     ///< feeds of the coming compute
    int drained_[kChannels] = {-1, -1}; ///< drains of the last compute
};

} // namespace meshslice

#endif // MESHSLICE_CORE_TASKGRAPH_HPP_
