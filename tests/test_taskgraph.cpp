/**
 * @file
 * Tests of the task graph that drives software-pipelined schedules and
 * of the `SlicePipeline` dependency rules built on it.
 */
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/taskgraph.hpp"

namespace meshslice {
namespace {

TEST(TaskGraph, RunsIndependentTasksImmediately)
{
    Simulator sim;
    TaskGraph graph(sim);
    std::vector<int> ran;
    for (int i = 0; i < 3; ++i)
        graph.addTask([&ran, i](std::function<void()> done) {
            ran.push_back(i);
            done();
        });
    bool finished = false;
    graph.start([&] { finished = true; });
    sim.run();
    EXPECT_TRUE(finished);
    EXPECT_EQ(ran.size(), 3u);
}

TEST(TaskGraph, RespectsDependencies)
{
    Simulator sim;
    TaskGraph graph(sim);
    std::vector<int> order;
    // c depends on b depends on a, but a finishes late.
    int a = graph.addTask([&](std::function<void()> done) {
        sim.scheduleAfter(10.0, [&order, done] {
            order.push_back(0);
            done();
        });
    });
    int b = graph.addTask(
        [&order](std::function<void()> done) {
            order.push_back(1);
            done();
        },
        {a});
    graph.addTask(
        [&order](std::function<void()> done) {
            order.push_back(2);
            done();
        },
        {b});
    bool finished = false;
    graph.start([&] { finished = true; });
    sim.run();
    EXPECT_TRUE(finished);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(TaskGraph, DiamondJoinWaitsForAllParents)
{
    Simulator sim;
    TaskGraph graph(sim);
    Time join_time = -1.0;
    int root = graph.addTask([](std::function<void()> done) { done(); });
    int left = graph.addTask(
        [&sim](std::function<void()> done) {
            sim.scheduleAfter(5.0, done);
        },
        {root});
    int right = graph.addTask(
        [&sim](std::function<void()> done) {
            sim.scheduleAfter(9.0, done);
        },
        {root});
    graph.addTask(
        [&](std::function<void()> done) {
            join_time = sim.now();
            done();
        },
        {left, right});
    graph.start([] {});
    sim.run();
    EXPECT_DOUBLE_EQ(join_time, 9.0);
}

TEST(TaskGraph, PipelineOverlapsIndependentChains)
{
    // Two chains of 3 tasks each, 1s per task, no cross deps: the
    // simulated "wall clock" is 3s, not 6s.
    Simulator sim;
    TaskGraph graph(sim);
    for (int chain = 0; chain < 2; ++chain) {
        int prev = -1;
        for (int i = 0; i < 3; ++i) {
            auto fn = [&sim](std::function<void()> done) {
                sim.scheduleAfter(1.0, done);
            };
            prev = graph.addTask(fn, prev < 0 ? std::vector<int>{}
                                              : std::vector<int>{prev});
        }
    }
    graph.start([] {});
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(TaskGraph, EmptyGraphCompletes)
{
    Simulator sim;
    TaskGraph graph(sim);
    bool finished = false;
    graph.start([&] { finished = true; });
    sim.run();
    EXPECT_TRUE(finished);
}

TEST(TaskGraphDeath, RejectsForwardDependencies)
{
    Simulator sim;
    TaskGraph graph(sim);
    EXPECT_DEATH(
        graph.addTask([](std::function<void()> done) { done(); }, {5}),
        "bad dependency");
}

TEST(TaskGraph, RunReturnsCompletionNotDrainTime)
{
    Simulator sim;
    sim.schedule(100.0, [] {}); // unrelated event outliving the graph
    TaskGraph graph(sim);
    graph.addTask([&sim](std::function<void()> done) {
        sim.scheduleAfter(3.0, std::move(done));
    });
    bool stopped = true;
    EXPECT_EQ(graph.run("test", &stopped), 3.0);
    EXPECT_FALSE(stopped);
    EXPECT_EQ(sim.now(), 100.0);
}

TEST(TaskGraph, RunReturnsStopTimeOfAnAbandonedSchedule)
{
    Simulator sim;
    TaskGraph graph(sim);
    graph.addTask([&sim](std::function<void()>) {
        sim.scheduleAfter(4.0, [&sim] { sim.requestStop(); });
    });
    bool stopped = false;
    EXPECT_EQ(graph.run("test", &stopped), 4.0);
    EXPECT_TRUE(stopped);
}

TEST(TaskGraphDeath, RunPanicsOnADrainWithPendingTasks)
{
    Simulator sim;
    TaskGraph graph(sim);
    graph.addTask([](std::function<void()>) {}); // never completes
    EXPECT_DEATH(graph.run("stuck"), "stuck: .*1 of 1 tasks incomplete");
}

/** Start times of a two-slice pipeline's tasks, and its completion. */
struct PipelineTimes
{
    std::map<std::string, Time> start;
    Time end = 0.0;
};

/**
 * Two ops of feed(0) 2 s, feed(1) 3 s, compute 4 s and drain(0) 1 s.
 * Task names are slot, op, channel: "f0a" is op 0's feed on channel 0.
 */
PipelineTimes
runTwoSlices(SlicePipeline::Mode mode, Time after_seconds = -1.0)
{
    Simulator sim;
    TaskGraph graph(sim);
    PipelineTimes times;
    auto task = [&sim, &times](std::string name, Time seconds) {
        return [&sim, &times, name, seconds](std::function<void()> done) {
            times.start[name] = sim.now();
            sim.scheduleAfter(seconds, std::move(done));
        };
    };
    const int after = after_seconds >= 0.0
                          ? graph.addTask(task("after", after_seconds))
                          : -1;
    SlicePipeline pipe(graph, mode, after);
    for (const std::string op : {"0", "1"}) {
        pipe.feed(0, task("f" + op + "a", 2.0));
        pipe.feed(1, task("f" + op + "b", 3.0));
        pipe.compute(task("c" + op, 4.0));
        pipe.drain(0, task("d" + op, 1.0));
    }
    times.end = graph.run("test");
    return times;
}

TEST(SlicePipeline, FullModeOverlapsChannelsWithCompute)
{
    const PipelineTimes t = runTwoSlices(SlicePipeline::Mode::kFull);
    EXPECT_EQ(t.end, 12.0);
    const std::map<std::string, Time> expected = {
        {"f0a", 0.0}, {"f0b", 0.0}, {"f1a", 2.0}, {"c0", 3.0},
        {"f1b", 3.0}, {"d0", 7.0},  {"c1", 7.0},  {"d1", 11.0}};
    EXPECT_EQ(t.start, expected);
}

TEST(SlicePipeline, NoneModeIsStrictProgramOrder)
{
    const PipelineTimes t = runTwoSlices(SlicePipeline::Mode::kNone);
    EXPECT_EQ(t.end, 20.0);
    EXPECT_EQ(t.start.at("f0b"), 2.0);
    EXPECT_EQ(t.start.at("f1a"), 10.0);
    EXPECT_EQ(t.start.at("d1"), 19.0);
}

TEST(SlicePipeline, SerializedModeWaitsForThePreviousOp)
{
    const PipelineTimes t = runTwoSlices(SlicePipeline::Mode::kSerialized);
    EXPECT_EQ(t.end, 16.0);
    EXPECT_EQ(t.start.at("c0"), 3.0);
    EXPECT_EQ(t.start.at("d0"), 7.0);
    EXPECT_EQ(t.start.at("f1a"), 8.0); // waits for d0
    EXPECT_EQ(t.start.at("f1b"), 8.0);
    EXPECT_EQ(t.start.at("c1"), 11.0);
    EXPECT_EQ(t.start.at("d1"), 15.0);
}

TEST(SlicePipeline, AfterTaskGatesTheFirstOps)
{
    const PipelineTimes t =
        runTwoSlices(SlicePipeline::Mode::kFull, /*after_seconds=*/5.0);
    EXPECT_EQ(t.end, 17.0);
    EXPECT_EQ(t.start.at("f0a"), 5.0);
    EXPECT_EQ(t.start.at("f0b"), 5.0);
    EXPECT_EQ(t.start.at("d1"), 16.0);
}

} // namespace
} // namespace meshslice
