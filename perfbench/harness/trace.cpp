#include "harness/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"

namespace perfbench {

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** Layer of a span name: the text before the first '.'. */
std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

int
Tracer::begin(const std::string &name, long request)
{
    if (!active_)
        return -1;
    SpanRecord rec;
    rec.name = name;
    rec.parent = open_.empty() ? -1 : open_.back();
    rec.request = request;
    rec.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
    spans_.push_back(std::move(rec));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (open_.empty() || open_.back() != id) {
        std::fprintf(stderr, "perfbench: span %d closed out of order\n", id);
        std::abort();
    }
    open_.pop_back();
    spans_[static_cast<size_t>(id)].endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count();
}

void
Tracer::rename(int id, const std::string &name)
{
    if (id >= 0)
        spans_.at(static_cast<size_t>(id)).name = name;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const SpanRecord &s : spans_)
        if (s.name == name)
            out.push_back(s.seconds());
    return out;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    std::vector<std::vector<int>> children(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
        // Children of one span are recorded in start order; merge their
        // intervals so overlapping children are not subtracted twice.
        std::int64_t covered = 0;
        std::int64_t reach = spans_[i].startNs;
        for (int c : children[i]) {
            const SpanRecord &child = spans_[static_cast<size_t>(c)];
            const std::int64_t from = std::max(child.startNs, reach);
            const std::int64_t to = std::min(child.endNs, spans_[i].endNs);
            if (to > from)
                covered += to - from;
            reach = std::max(reach, to);
        }
        self[layerOf(spans_[i].name)] +=
            (spans_[i].endNs - spans_[i].startNs - covered) * 1e-9;
    }
    return self;
}

void
Tracer::write(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"clock\": \"host steady_clock, ns since tracer start\", "
           "\"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out << (i ? ",\n" : "") << "{\"id\": " << i
            << ", \"name\": " << meshslice::jsonString(s.name)
            << ", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs << ", \"parent\": " << s.parent
            << ", \"request\": " << s.request << "}";
    }
    out << "\n]}\n";
    out.flush();
    if (!out)
        throw std::runtime_error("perfbench: cannot write " + path);
}

} // namespace perfbench
