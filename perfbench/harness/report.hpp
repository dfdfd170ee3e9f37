/**
 * @file
 * What one benchmark run reports: metrics (host-time or counts, each
 * with its unit and sample count), simulated outputs (printed, never
 * gated), and operations attempted/failed. The last stdout line is the
 * result object: {"correct", "attempted", "failed", "metrics"}.
 */
#ifndef PERFBENCH_REPORT_HPP_
#define PERFBENCH_REPORT_HPP_

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Nearest-rank percentile, @p q in (0, 1]; 0 if empty. */
double percentile(std::vector<double> v, double q);

/** Arithmetic mean of @p v; 0 if empty. */
double mean(const std::vector<double> &v);

/*
 * The host switches between a fast and a slow speed several times a
 * second (one vCPU of a shared machine, pinned or not, runs the serve
 * path at ~31 or ~50 us per hit). A whole-run median of such samples
 * jumps between the two modes as their mix drifts around one half, so
 * the statistics below work on consecutive windows of operations, in
 * the order they ran (the tail joins the last window).
 */

/** @p q-percentile of each window of @p window latencies, averaged
 *  over the windows: moves smoothly with the fast/slow mix. */
double windowedPercentile(const std::vector<double> &seconds, size_t window,
                          double q);

/** Closed-loop rate of each window of @p window latencies (operations
 *  per second of their own time); the median window. */
double medianWindowRate(const std::vector<double> &seconds, size_t window);

class Report
{
  public:
    /**
     * Record metric @p name. @p clock is "host" or "count";
     * @p note says what was measured and over how many samples. Every
     * metric is printed as it is recorded.
     */
    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &clock,
                const std::string &note);

    /** Print one simulated output (simulated time, picked plan): shown
     *  so a changed result is visible, but not a metric. */
    void sim(const std::string &line);

    /** Count one operation; a failed check makes it a failed one. */
    void operation(bool ok, const std::string &what);

    /** A check that is not tied to one operation. */
    void check(bool ok, const std::string &what);

    /** The result object (one line of JSON). */
    std::string resultJson() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    long attempted_ = 0;
    long failed_ = 0;
    bool checksOk_ = true;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP_
