#include "harness/host_speed.hpp"

#include <cstdint>
#include <map>

#include "harness/report.hpp"
#include "harness/trace.hpp"

namespace perfbench {

void
HostSpeed::sample()
{
    // Ordered-map inserts and lookups of pseudo-random keys: allocation,
    // pointer chasing and branches, like the program's host work.
    const double start = hostNow();
    std::map<std::uint64_t, std::uint64_t> map;
    std::uint64_t key = 7;
    auto next = [&key] {
        key = key * 6364136223846793005ULL + 1442695040888963407ULL;
        return key >> 20;
    };
    for (int i = 0; i < 20000; ++i)
        map[next()] += static_cast<std::uint64_t>(i);
    std::uint64_t sum = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto it = map.lower_bound(next());
        if (it != map.end())
            sum += it->second;
    }
    volatile std::uint64_t keep = sum; // the lookups must not be elided
    (void)keep;
    samples_.push_back(hostNow() - start);
}

double
HostSpeed::slowdown() const
{
    return samples_.empty() ? 1.0 : median(samples_) / kReferenceSeconds;
}

} // namespace perfbench
