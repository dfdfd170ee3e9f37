/**
 * @file
 * Tests of the fluid resource-sharing network: solo rates, fair
 * sharing, water-filling (work conservation), accounting, the
 * NIC-vs-core HBM contention scenario the TPU model depends on, the
 * flow table's start-order and stale-id contract, and property tests
 * of the incremental waterfill against a plain full-scan reference.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/fluid.hpp"
#include "sim/simulator.hpp"

namespace meshslice {
namespace {

class FluidTest : public ::testing::Test
{
  protected:
    Simulator sim;
    FluidNetwork net{sim};
};

TEST_F(FluidTest, SoloFlowRunsAtCapacity)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end = -1.0;
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end = sim.now(); });
    sim.run();
    EXPECT_NEAR(end, 10.0, 1e-9);
}

TEST_F(FluidTest, DemandCoefficientScalesRate)
{
    ResourceId r = net.addResource("hbm", 100.0);
    Time end = -1.0;
    // 2 units of resource per flow unit -> rate 50 -> 1000/50 = 20s.
    net.startFlow(1000.0, {{r, 2.0}}, [&] { end = sim.now(); });
    sim.run();
    EXPECT_NEAR(end, 20.0, 1e-9);
}

TEST_F(FluidTest, TwoEqualFlowsShareFairly)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end1 = -1.0, end2 = -1.0;
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end1 = sim.now(); });
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end2 = sim.now(); });
    sim.run();
    EXPECT_NEAR(end1, 20.0, 1e-9);
    EXPECT_NEAR(end2, 20.0, 1e-9);
}

TEST_F(FluidTest, FinishedFlowReleasesBandwidth)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end_small = -1.0, end_big = -1.0;
    net.startFlow(500.0, {{r, 1.0}}, [&] { end_small = sim.now(); });
    net.startFlow(1500.0, {{r, 1.0}}, [&] { end_big = sim.now(); });
    sim.run();
    // Shared at 50 each until t=10 (small done); big then runs at 100:
    // remaining 1000 -> done at t=20.
    EXPECT_NEAR(end_small, 10.0, 1e-9);
    EXPECT_NEAR(end_big, 20.0, 1e-9);
}

TEST_F(FluidTest, WaterFillingIsWorkConserving)
{
    // A small flow capped elsewhere must not strand shared capacity.
    ResourceId link = net.addResource("link", 10.0);
    ResourceId hbm = net.addResource("hbm", 100.0);
    Time end_link = -1.0, end_heavy = -1.0;
    // Flow A: limited by its link to rate 10, also uses hbm.
    net.startFlow(100.0, {{link, 1.0}, {hbm, 1.0}},
                  [&] { end_link = sim.now(); });
    // Flow B: only hbm; should get the remaining 90, not a "fair" 50.
    net.startFlow(900.0, {{hbm, 1.0}}, [&] { end_heavy = sim.now(); });
    sim.run();
    EXPECT_NEAR(end_link, 10.0, 1e-9);
    EXPECT_NEAR(end_heavy, 10.0, 1e-9);
}

TEST_F(FluidTest, OversubscribedResourceSplitsEvenly)
{
    ResourceId hbm = net.addResource("hbm", 100.0);
    int done = 0;
    for (int i = 0; i < 4; ++i)
        net.startFlow(250.0, {{hbm, 1.0}}, [&] { ++done; });
    sim.run();
    EXPECT_EQ(done, 4);
    // 4 flows at 25 each -> all finish at t=10.
    EXPECT_NEAR(sim.now(), 10.0, 1e-9);
}

TEST_F(FluidTest, MultiResourceBottleneckIsTheMinimum)
{
    ResourceId a = net.addResource("a", 100.0);
    ResourceId b = net.addResource("b", 30.0);
    Time end = -1.0;
    net.startFlow(300.0, {{a, 1.0}, {b, 1.0}}, [&] { end = sim.now(); });
    sim.run();
    EXPECT_NEAR(end, 10.0, 1e-9);
}

TEST_F(FluidTest, NicComputeHbmContentionScenario)
{
    // TPU-like: links 45, HBM 1200. Two NIC transfers (45 each) plus a
    // compute stream demanding 1500 B/flop-units must squeeze into the
    // leftover 1110.
    ResourceId l1 = net.addResource("l1", 45.0);
    ResourceId l2 = net.addResource("l2", 45.0);
    ResourceId hbm = net.addResource("hbm", 1200.0);
    Time end1 = -1, end2 = -1, endc = -1;
    net.startFlow(45.0, {{l1, 1.0}, {hbm, 1.0}}, [&] { end1 = sim.now(); });
    net.startFlow(45.0, {{l2, 1.0}, {hbm, 1.0}}, [&] { end2 = sim.now(); });
    // Compute flow: wants hbm at 1500/s (solo would be capped at 1200).
    net.startFlow(1110.0, {{hbm, 1.0}}, [&] { endc = sim.now(); });
    sim.run();
    EXPECT_NEAR(end1, 1.0, 1e-9);
    EXPECT_NEAR(end2, 1.0, 1e-9);
    // Compute gets 1200 - 90 = 1110 while transfers are active.
    EXPECT_NEAR(endc, 1.0, 1e-6);
}

TEST_F(FluidTest, ZeroSizeFlowCompletesImmediately)
{
    net.addResource("r", 1.0);
    bool fired = false;
    net.startFlow(0.0, {}, [&] { fired = true; });
    sim.run();
    EXPECT_TRUE(fired);
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST_F(FluidTest, ResourceAccountingTracksConsumption)
{
    ResourceId r = net.addResource("link", 100.0);
    net.startFlow(1000.0, {{r, 1.0}}, [] {});
    sim.run();
    ResourceStats stats = net.resourceStats(r);
    EXPECT_NEAR(stats.totalConsumed, 1000.0, 1e-6);
    EXPECT_NEAR(stats.busyTime, 10.0, 1e-6);
    EXPECT_EQ(stats.activeFlows, 0);
}

TEST_F(FluidTest, ChainedFlowsAdvanceTime)
{
    ResourceId r = net.addResource("link", 10.0);
    Time end = -1.0;
    net.startFlow(100.0, {{r, 1.0}}, [&] {
        net.startFlow(50.0, {{r, 1.0}}, [&] { end = sim.now(); });
    });
    sim.run();
    EXPECT_NEAR(end, 15.0, 1e-9);
}

TEST_F(FluidTest, RatesRecomputeOnArrival)
{
    ResourceId r = net.addResource("link", 100.0);
    Time end_first = -1.0;
    net.startFlow(1000.0, {{r, 1.0}}, [&] { end_first = sim.now(); });
    // At t=5, a second flow arrives; first has 500 left, now at rate 50
    // -> finishes at t = 5 + 10 = 15.
    sim.schedule(5.0, [&] { net.startFlow(5000.0, {{r, 1.0}}, [] {}); });
    sim.run();
    EXPECT_NEAR(end_first, 15.0, 1e-9);
}

TEST_F(FluidTest, SameInstantCompletionsRunInStartOrder)
{
    ResourceId r = net.addResource("link", 100.0);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        net.startFlow(100.0, {{r, 1.0}}, [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST_F(FluidTest, EndedFlowIdStaysDeadOnceItsSlotIsReused)
{
    ResourceId r = net.addResource("link", 100.0);
    const FlowId old = net.startFlow(100.0, {{r, 1.0}}, [] {});
    sim.run();
    // The next flow takes the finished flow's slot.
    bool fresh_done = false;
    const FlowId fresh =
        net.startFlow(1000.0, {{r, 1.0}}, [&] { fresh_done = true; });
    sim.runUntil(sim.now() + 1.0);
    EXPECT_NE(fresh, old);
    EXPECT_FALSE(net.isActive(old));
    EXPECT_EQ(net.flowRate(old), 0.0);
    EXPECT_FALSE(net.cancelFlow(old));
    EXPECT_TRUE(net.isActive(fresh));
    EXPECT_EQ(net.flowRate(fresh), 100.0);
    EXPECT_EQ(net.activeFlowCount(), 1u);
    sim.run();
    EXPECT_TRUE(fresh_done);
}

TEST_F(FluidTest, CountAndStallDumpListOnlyLiveFlowsInIdOrder)
{
    ResourceId r = net.addResource("link", 100.0);
    // Four flows share 25 units/s each, so `done` ends at t = 2.
    const FlowId done = net.startFlow(50.0, {{r, 1.0}}, [] {});
    const FlowId b = net.startFlow(1000.0, {{r, 1.0}}, [] {});
    const FlowId cancelled = net.startFlow(1000.0, {{r, 1.0}}, [] {});
    const FlowId d = net.startFlow(1000.0, {{r, 1.0}}, [] {});
    sim.runUntil(3.0);
    ASSERT_FALSE(net.isActive(done));
    EXPECT_TRUE(net.cancelFlow(cancelled));
    // The newest flow reuses a freed slot but is listed last.
    const FlowId e = net.startFlow(1000.0, {{r, 1.0}}, [] {});
    auto check = [&] {
        EXPECT_EQ(net.activeFlowCount(), 3u);
        const std::string dump = net.stallDiagnostic();
        EXPECT_EQ(dump.rfind("3 flow(s) still outstanding:\n", 0), 0u);
        auto at = [&dump](FlowId id) {
            return dump.find("flow " + std::to_string(id) + ":");
        };
        EXPECT_EQ(at(done), std::string::npos);
        EXPECT_EQ(at(cancelled), std::string::npos);
        ASSERT_NE(at(e), std::string::npos);
        EXPECT_LT(at(b), at(d));
        EXPECT_LT(at(d), at(e));
    };
    check(); // ended ids still wait in the start-order list
    sim.runUntil(sim.now() + 1.0);
    check(); // after the recompute that drops them
}

/**
 * Reference saturate-and-waterfill over every resource: flows start at
 * their solo rate; while a resource is oversubscribed, the most
 * oversubscribed one (lowest id on ties) cuts its heaviest consumers
 * to the equal consumption level that exactly fills its capacity. The
 * simulator's waterfill only visits the resources current flows
 * demand, settles lazily and reuses scratch state; its rates must
 * match this plain version.
 */
std::vector<double>
referenceRates(const std::vector<double> &capacity,
               const std::vector<std::vector<Demand>> &flows)
{
    std::vector<double> rate(flows.size(), 1e300);
    for (size_t i = 0; i < flows.size(); ++i)
        for (const Demand &d : flows[i])
            rate[i] = std::min(rate[i], capacity[d.resource] / d.perUnit);
    std::vector<char> processed(capacity.size(), 0);
    for (;;) {
        int worst = -1;
        double worst_ratio = 1.0 + 1e-9;
        for (size_t r = 0; r < capacity.size(); ++r) {
            if (processed[r])
                continue;
            double load = 0.0;
            for (size_t i = 0; i < flows.size(); ++i)
                for (const Demand &d : flows[i])
                    if (d.resource == static_cast<ResourceId>(r))
                        load += d.perUnit * rate[i];
            if (load / capacity[r] > worst_ratio) {
                worst_ratio = load / capacity[r];
                worst = static_cast<int>(r);
            }
        }
        if (worst < 0)
            return rate;
        processed[static_cast<size_t>(worst)] = 1;
        // (consumption, flow, demand coefficient) of the flows on worst.
        std::vector<std::pair<double, std::pair<size_t, double>>> on;
        for (size_t i = 0; i < flows.size(); ++i)
            for (const Demand &d : flows[i])
                if (d.resource == worst)
                    on.push_back({d.perUnit * rate[i], {i, d.perUnit}});
        std::sort(on.begin(), on.end());
        double below = 0.0;
        double level = 0.0;
        for (size_t k = 0; k < on.size(); ++k) {
            level = (capacity[static_cast<size_t>(worst)] - below) /
                    static_cast<double>(on.size() - k);
            if (on[k].first > level)
                break;
            below += on[k].first;
        }
        for (const auto &[c, flow] : on)
            if (c > level)
                rate[flow.first] =
                    std::min(rate[flow.first], level / flow.second);
    }
}

TEST(FluidProperty, RatesMatchTheReferenceWaterfill)
{
    std::mt19937_64 rng(20250614);
    auto uniform = [&rng](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto below = [&rng](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    for (int trial = 0; trial < 200; ++trial) {
        Simulator sim;
        FluidNetwork net(sim);
        std::vector<double> capacity(static_cast<size_t>(1 + below(12)));
        for (double &c : capacity) {
            c = uniform(1.0, 100.0);
            net.addResource("r", c);
        }
        // Two rounds per trial: a random flow set, then some flows
        // cancelled and new ones started on top of it.
        std::map<FlowId, std::vector<Demand>> active;
        for (int round = 0; round < 2; ++round) {
            for (auto it = active.begin(); it != active.end();) {
                if (below(3) == 0) {
                    net.cancelFlow(it->first);
                    it = active.erase(it);
                } else {
                    ++it;
                }
            }
            const int count = 1 + below(16);
            for (int f = 0; f < count; ++f) {
                std::vector<ResourceId> ids(capacity.size());
                for (size_t r = 0; r < ids.size(); ++r)
                    ids[r] = static_cast<ResourceId>(r);
                std::shuffle(ids.begin(), ids.end(), rng);
                std::vector<Demand> demands;
                const int width =
                    1 + below(std::min<int>(4, static_cast<int>(ids.size())));
                for (int d = 0; d < width; ++d)
                    demands.push_back({ids[static_cast<size_t>(d)],
                                       uniform(0.25, 4.0)});
                // Sized so that nothing completes within the check.
                const FlowId id = net.startFlow(1e15, demands, [] {});
                active[id] = demands;
            }
            sim.runUntil(sim.now() + 1e-6);

            std::vector<std::vector<Demand>> flows;
            for (const auto &entry : active)
                flows.push_back(entry.second);
            const std::vector<double> expected =
                referenceRates(capacity, flows);
            size_t i = 0;
            for (const auto &entry : active) {
                const double got = net.flowRate(entry.first);
                EXPECT_NEAR(got, expected[i], 1e-12 * expected[i])
                    << "trial " << trial << " round " << round
                    << " flow " << entry.first;
                ++i;
            }
        }
    }
}

/**
 * The same check where the waterfill's pick order matters most: 64-256
 * resources and up to 256 flows of up to six demands, so one recompute
 * picks many resources and many of their earlier ratios go stale, with
 * capacities changed between rounds. Even trials make the top ratio a
 * tie that the lowest id must break: one power-of-two capacity and a
 * coefficient of 1 everywhere. A resource may carry any number of
 * flows, so a waterfill level such as 8/3 is inexact and a tie holds
 * bit for bit only because the simulator sums each load in flow-id
 * order, as the reference does.
 */
TEST(FluidProperty, RatesMatchTheReferenceWaterfillWithTiesAndAtScale)
{
    std::mt19937_64 rng(20261018);
    auto uniform = [&rng](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    auto below = [&rng](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    for (int trial = 0; trial < 8; ++trial) {
        const bool ties = trial % 2 == 0;
        Simulator sim;
        FluidNetwork net(sim);
        std::vector<double> capacity(static_cast<size_t>(64 + below(193)));
        for (double &c : capacity) {
            c = ties ? 8.0 : uniform(1.0, 100.0);
            net.addResource("r", c);
        }
        std::map<FlowId, std::vector<Demand>> active;
        for (int round = 0; round < 3; ++round) {
            if (round > 0) {
                for (auto it = active.begin(); it != active.end();) {
                    if (below(3) == 0) {
                        net.cancelFlow(it->first);
                        it = active.erase(it);
                    } else {
                        ++it;
                    }
                }
                const double tied = round == 1 ? 4.0 : 16.0;
                for (size_t r = 0; r < capacity.size(); ++r) {
                    if (below(4) != 0)
                        continue;
                    capacity[r] = ties ? tied : uniform(1.0, 100.0);
                    net.setCapacity(static_cast<ResourceId>(r), capacity[r]);
                }
            }
            const int count =
                1 + below(256 - static_cast<int>(active.size()));
            for (int f = 0; f < count; ++f) {
                std::vector<ResourceId> ids(capacity.size());
                for (size_t r = 0; r < ids.size(); ++r)
                    ids[r] = static_cast<ResourceId>(r);
                std::shuffle(ids.begin(), ids.end(), rng);
                const size_t width = static_cast<size_t>(1 + below(6));
                std::vector<Demand> demands;
                for (size_t d = 0; d < width; ++d)
                    demands.push_back(
                        {ids[d], ties ? 1.0 : uniform(0.25, 4.0)});
                const FlowId id = net.startFlow(1e15, demands, [] {});
                active[id] = demands;
            }
            sim.runUntil(sim.now() + 1e-6);

            std::vector<std::vector<Demand>> flows;
            for (const auto &entry : active)
                flows.push_back(entry.second);
            const std::vector<double> expected =
                referenceRates(capacity, flows);
            size_t i = 0;
            for (const auto &entry : active) {
                const double got = net.flowRate(entry.first);
                EXPECT_NEAR(got, expected[i], 1e-12 * expected[i])
                    << "trial " << trial << " round " << round
                    << " flow " << entry.first;
                ++i;
            }
        }
    }
}

} // namespace
} // namespace meshslice
