/**
 * @file
 * In-memory span recorder for the traced run.
 *
 * A span is (name, id, parent, start, end) on the host's steady clock;
 * every span of one benchmark invocation carries the same run id. The
 * recorder only appends to a vector while the benchmark runs and writes
 * the whole trace once, as JSON lines, when the run ends.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 for a root span.
    double start = 0.0;       ///< Seconds since the recorder started.
    double end = 0.0;

    double seconds() const { return end - start; }
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(std::uint64_t run_id);

    /** Seconds since the recorder started. */
    double now() const;

    /** Open a span; returns its id. */
    std::uint64_t begin(std::string name, std::uint64_t parent);

    /** Close span @p id; returns its duration in seconds. */
    double end(std::uint64_t id);

    /** Append an already-measured span. */
    std::uint64_t add(std::string name, std::uint64_t parent, double start,
                      double end);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Write every span as one JSON object per line, after a first line
     * holding @p header (a JSON object body without braces). Returns
     * false on I/O failure.
     */
    bool write(const std::string &path, const std::string &header) const;

  private:
    std::uint64_t runId_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
};

/** RAII span: open on construction, close on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, std::string name, std::uint64_t parent)
        : rec_(rec), id_(rec.begin(std::move(name), parent))
    {
    }
    ~SpanScope() { rec_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    SpanRecorder &rec_;
    std::uint64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
