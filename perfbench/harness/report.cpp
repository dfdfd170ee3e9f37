#include "harness/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/json.hpp"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double
mean(const std::vector<double> &v)
{
    double total = 0.0;
    for (double x : v)
        total += x;
    return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

namespace {

/** Apply @p stat to each window of @p v; the tail joins the last one. */
template <typename Stat>
std::vector<double>
perWindow(const std::vector<double> &v, size_t window, const Stat &stat)
{
    std::vector<double> out;
    size_t begin = 0;
    while (begin < v.size()) {
        size_t end = std::min(begin + window, v.size());
        if (v.size() - end < window)
            end = v.size();
        out.push_back(stat(std::vector<double>(v.begin() + begin,
                                               v.begin() + end)));
        begin = end;
    }
    return out;
}

} // namespace

double
windowedPercentile(const std::vector<double> &seconds, size_t window,
                   double q)
{
    return mean(perWindow(seconds, window, [q](std::vector<double> w) {
        return percentile(std::move(w), q);
    }));
}

double
medianWindowRate(const std::vector<double> &seconds, size_t window)
{
    return median(perWindow(seconds, window, [](std::vector<double> w) {
        const double busy = mean(w) * static_cast<double>(w.size());
        return busy > 0.0 ? static_cast<double>(w.size()) / busy : 0.0;
    }));
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, const std::string &clock,
               const std::string &note)
{
    metrics_[name] = Value{value, unit};
    std::printf("metric %-26s %14.6g %-8s [%s] %s\n", name.c_str(), value,
                unit.c_str(), clock.c_str(), note.c_str());
}

void
Report::sim(const std::string &line)
{
    std::printf("sim    %s\n", line.c_str());
}

void
Report::operation(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

void
Report::check(bool ok, const std::string &what)
{
    if (!ok) {
        checksOk_ = false;
        std::fprintf(stderr, "perfbench: FAILED check %s\n", what.c_str());
    }
}

std::string
Report::resultJson() const
{
    std::ostringstream out;
    out << "{\"correct\": "
        << (checksOk_ && failed_ == 0 && attempted_ > 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, v] : metrics_) {
        out << (first ? "" : ", ") << meshslice::jsonString(name)
            << ": {\"value\": " << meshslice::jsonNumber(v.value)
            << ", \"unit\": " << meshslice::jsonString(v.unit) << "}";
        first = false;
    }
    out << "}}";
    return out.str();
}

} // namespace perfbench
