/**
 * @file
 * In-memory host-time spans recorded around calls into the MeshSlice
 * layers.
 *
 * A span is (name, start, end, parent, request id) on the host's
 * steady clock. The name's prefix up to the first '.' is the layer
 * ("engine.plan.hit" belongs to `engine`); the benchmark's own work
 * between calls is the `client` layer. Spans nest through a stack, so
 * the tracer is for the single client thread only. Nothing is written
 * until `write`, after the measured loop has ended. An inactive tracer
 * records nothing, so an untraced operation pays one branch per span.
 */
#ifndef PERFBENCH_TRACE_HPP_
#define PERFBENCH_TRACE_HPP_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** Host seconds on the steady clock (the only clock spans use). */
double hostNow();

struct SpanRecord
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;      ///< index of the enclosing span, -1 at top
    long request = -1;    ///< operation the span belongs to

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

class Tracer
{
  public:
    Tracer();

    /** Record spans only while active: during the traced operations of
     *  a traced run. */
    void setActive(bool on) { active_ = on; }

    /** Open a span under the innermost open one; -1 when inactive. */
    int begin(const std::string &name, long request);

    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    /** Rename a recorded span (e.g. once the plan source is known). */
    void rename(int id, const std::string &name);

    const std::vector<SpanRecord> &spans() const { return spans_; }

    /** Durations (s) of every closed span named @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Self time per layer: each span's duration minus the part of it
     *  its children cover, summed by layer prefix. */
    std::map<std::string, double> selfSecondsByLayer() const;

    /** Write every span as one JSON document to @p path. */
    void write(const std::string &path) const;

  private:
    bool active_ = false;
    std::chrono::steady_clock::time_point origin_;
    std::vector<SpanRecord> spans_;
    std::vector<int> open_;
};

/** RAII span: opens on construction, closes on destruction. */
class Span
{
  public:
    Span(Tracer &tracer, const std::string &name, long request)
        : tracer_(tracer), id_(tracer.begin(name, request))
    {
    }
    ~Span() { close(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close early (idempotent). */
    void
    close()
    {
        if (id_ >= 0)
            tracer_.end(id_);
        id_ = -1;
    }

    int id() const { return id_; }

  private:
    Tracer &tracer_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP_
