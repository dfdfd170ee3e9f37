/**
 * @file
 * The host's speed over one run.
 *
 * The shared host this benchmark was built on switches between speed
 * regimes that last minutes and differ by up to 1.7x, and a switch
 * moves every metric of a run together (README.md, "Steadiness"). So a
 * fixed reference task, which belongs to the benchmark and calls no
 * program code, is timed between operations, and the end-to-end host
 * times are reported scaled to the host speed at which the task takes
 * `kReferenceSeconds`. The task runs only between two operations, so
 * it measures the host, not the program, as long as the program keeps
 * no thread busy between operations (the pool's workers sleep when
 * idle).
 */
#ifndef PERFBENCH_HOST_SPEED_HPP_
#define PERFBENCH_HOST_SPEED_HPP_

#include <cstddef>
#include <vector>

namespace perfbench {

class HostSpeed
{
  public:
    /** The task's typical time on the 4-vCPU host the bounds were set
     *  on. */
    static constexpr double kReferenceSeconds = 0.010;

    /** Run the task once on this thread and record its time. */
    void sample();

    /** Median task time over kReferenceSeconds (> 1: a slower host);
     *  1 before the first sample. */
    double slowdown() const;

    size_t samples() const { return samples_.size(); }

    /** @p host_seconds scaled to the reference speed. */
    double seconds(double host_seconds) const
    {
        return host_seconds / slowdown();
    }

    /** @p per_host_second scaled to the reference speed. */
    double rate(double per_host_second) const
    {
        return per_host_second * slowdown();
    }

  private:
    std::vector<double> samples_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_SPEED_HPP_
