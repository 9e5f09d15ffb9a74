#include "spans.hh"

#include <cstdio>
#include <fstream>

namespace perfbench
{

SpanRecorder::SpanRecorder(std::uint64_t run_id)
    : runId_(run_id), origin_(std::chrono::steady_clock::now())
{
    spans_.reserve(1 << 16);
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

std::uint64_t
SpanRecorder::begin(std::string name, std::uint64_t parent)
{
    const double t = now();
    return add(std::move(name), parent, t, t);
}

double
SpanRecorder::end(std::uint64_t id)
{
    Span &span = spans_[id - 1];
    span.end = now();
    return span.seconds();
}

std::uint64_t
SpanRecorder::add(std::string name, std::uint64_t parent, double start,
                  double end)
{
    const std::uint64_t id = spans_.size() + 1;
    spans_.push_back(Span{std::move(name), id, parent, start, end});
    return id;
}

bool
SpanRecorder::write(const std::string &path,
                    const std::string &header) const
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\"run\": " << runId_ << ", " << header << "}\n";
    char line[256];
    for (const Span &s : spans_) {
        std::snprintf(line, sizeof(line),
                      "{\"run\": %llu, \"id\": %llu, \"parent\": %llu, "
                      "\"start_ns\": %.0f, \"end_ns\": %.0f, \"name\": \"",
                      static_cast<unsigned long long>(runId_),
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      s.start * 1e9, s.end * 1e9);
        out << line << s.name << "\"}\n";
    }
    out.close();
    return out.good();
}

} // namespace perfbench
