#include "core/taskgraph.hpp"

#include "util/logging.hpp"

namespace meshslice {

int
TaskGraph::addTask(TaskFn fn, std::vector<int> deps)
{
    if (started_)
        panic("TaskGraph: cannot add tasks after start");
    const int id = static_cast<int>(tasks_.size());
    Task task;
    task.fn = std::move(fn);
    for (int dep : deps) {
        if (dep < 0 || dep >= id)
            panic("TaskGraph: bad dependency %d for task %d", dep, id);
        tasks_[static_cast<size_t>(dep)].dependents.push_back(id);
        ++task.blockers;
    }
    if (prof_) {
        std::vector<int> dep_scopes;
        dep_scopes.reserve(deps.size());
        for (int dep : deps)
            dep_scopes.push_back(tasks_[static_cast<size_t>(dep)].profId);
        task.profId = prof_->newTask(dep_scopes);
    }
    tasks_.push_back(std::move(task));
    return id;
}

void
TaskGraph::start(std::function<void()> all_done)
{
    if (started_)
        panic("TaskGraph: started twice");
    started_ = true;
    allDone_ = std::move(all_done);
    remaining_ = static_cast<int>(tasks_.size());
    if (remaining_ == 0) {
        sim_.scheduleAfter(0.0, allDone_);
        return;
    }
    for (size_t id = 0; id < tasks_.size(); ++id)
        if (tasks_[id].blockers == 0)
            launchTask(static_cast<int>(id));
}

Time
TaskGraph::run(const char *who, bool *stopped)
{
    const Time begin = sim_.now();
    Time end = begin;
    bool finished = false;
    start([this, &finished, &end] {
        finished = true;
        end = sim_.now();
    });
    sim_.run();
    if (stopped != nullptr)
        *stopped = !finished && sim_.stopRequested();
    if (finished)
        return end - begin;
    if (stopped != nullptr && *stopped)
        return sim_.now() - begin;
    panic("%s: simulation drained with %d of %zu tasks incomplete", who,
          remaining_, tasks_.size());
}

void
TaskGraph::launchTask(int id)
{
    Task &task = tasks_[static_cast<size_t>(id)];
    if (task.launched)
        return; // a synchronously-completing dependency already did it
    task.launched = true;
    // The synchronous part of the body runs with the task's profiler
    // scope ambient; async completions capture the scope themselves.
    if (prof_)
        prof_->beginTask(task.profId);
    task.fn([this, id] { completeTask(id); });
    if (prof_)
        prof_->endTask();
}

void
TaskGraph::completeTask(int id)
{
    Task &task = tasks_[static_cast<size_t>(id)];
    if (task.completed)
        panic("TaskGraph: task %d completed twice", id);
    task.completed = true;
    if (prof_)
        prof_->finishTask(task.profId);
    for (int dep : task.dependents) {
        Task &next = tasks_[static_cast<size_t>(dep)];
        if (--next.blockers == 0)
            launchTask(dep);
    }
    if (--remaining_ == 0)
        allDone_();
}

int
SlicePipeline::add(TaskGraph::TaskFn fn, std::vector<int> deps)
{
    if (mode_ == Mode::kNone)
        deps.assign(last_ >= 0 ? 1 : 0, last_);
    if (deps.empty() && after_ >= 0)
        deps.push_back(after_);
    last_ = graph_.addTask(std::move(fn), std::move(deps));
    return last_;
}

std::vector<int>
SlicePipeline::gate() const
{
    std::vector<int> deps;
    if (mode_ == Mode::kSerialized)
        for (int d : drained_)
            if (d >= 0)
                deps.push_back(d);
    if (deps.empty() && lastCompute_ >= 0)
        deps.push_back(lastCompute_);
    return deps;
}

void
SlicePipeline::feed(int channel, TaskGraph::TaskFn fn)
{
    std::vector<int> deps;
    if (feedChain_[channel] >= 0)
        deps.push_back(feedChain_[channel]);
    if (mode_ == Mode::kSerialized)
        for (int g : gate())
            deps.push_back(g);
    feedChain_[channel] = fed_[channel] = add(std::move(fn), deps);
}

void
SlicePipeline::compute(TaskGraph::TaskFn fn)
{
    std::vector<int> deps = gate();
    for (int f : fed_)
        if (f >= 0)
            deps.push_back(f);
    lastCompute_ = add(std::move(fn), std::move(deps));
    for (int c = 0; c < kChannels; ++c)
        fed_[c] = drained_[c] = -1;
}

void
SlicePipeline::drain(int channel, TaskGraph::TaskFn fn)
{
    std::vector<int> deps;
    if (lastCompute_ >= 0)
        deps.push_back(lastCompute_);
    if (drainChain_[channel] >= 0)
        deps.push_back(drainChain_[channel]);
    drainChain_[channel] = drained_[channel] = add(std::move(fn), deps);
}

std::vector<int>
SlicePipeline::tail() const
{
    std::vector<int> ends(lastCompute_ >= 0 ? 1 : 0, lastCompute_);
    for (int d : drained_)
        if (d >= 0)
            ends.push_back(d);
    return ends;
}

} // namespace meshslice
