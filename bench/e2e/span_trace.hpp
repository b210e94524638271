/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * The traced run records one span around each call into a layer of the
 * simulator — a decode batch, a day slice, one appliance batch, one
 * finishDay — with its name, start, end, enclosing span, shard, and the
 * requests and blocks the call covered. Spans stay in memory while the
 * run is timed; writeChromeTrace() emits them afterwards as Chrome
 * trace-event JSON, which ui.perfetto.dev and chrome://tracing open
 * directly. A span's self time is its duration minus the time its
 * direct children cover, so self times over all spans sum to the
 * duration of the top-level spans.
 */

#ifndef SIEVESTORE_BENCH_E2E_SPAN_TRACE_HPP
#define SIEVESTORE_BENCH_E2E_SPAN_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace bench_e2e {

/** One recorded call. `name` and `label` point at string literals. */
struct Span
{
    const char *name;
    int64_t start_ns;
    int64_t end_ns;
    /** Index of the enclosing span, -1 for a top-level span. */
    int32_t parent;
    /** Appliance node the call ran on, -1 when not node-specific. */
    int32_t shard;
    /** Variant tag (eviction kind) or null. */
    const char *label;
    uint64_t requests;
    uint64_t blocks;

    int64_t duration() const { return end_ns - start_ns; }
};

/** Single-threaded span stack; spans must end innermost-first. */
class Tracer
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(size_t expected_spans) : origin_(Clock::now())
    {
        // Reserved up front so no reallocation lands inside a span.
        spans_.reserve(expected_spans);
    }

    size_t
    begin(const char *name, int32_t shard = -1, const char *label = nullptr)
    {
        const int32_t parent =
            stack_.empty() ? -1 : static_cast<int32_t>(stack_.back());
        spans_.push_back({name, 0, 0, parent, shard, label, 0, 0});
        stack_.push_back(spans_.size() - 1);
        spans_.back().start_ns = now();
        return spans_.size() - 1;
    }

    Span &
    end(size_t index)
    {
        const int64_t stop = now();
        SIEVE_CHECK(!stack_.empty() && stack_.back() == index,
                    "span '%s' ended out of order", spans_[index].name);
        stack_.pop_back();
        spans_[index].end_ns = stop;
        return spans_[index];
    }

    /** Nanoseconds since the tracer was created. */
    int64_t
    now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - origin_)
            .count();
    }

    const std::vector<Span> &spans() const { return spans_; }
    Span &span(size_t index) { return spans_[index]; }

    /** Self time of every span, index-aligned with spans(). */
    std::vector<int64_t>
    selfTimes() const
    {
        std::vector<int64_t> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            self[i] = spans_[i].duration();
        for (const Span &s : spans_)
            if (s.parent >= 0)
                self[static_cast<size_t>(s.parent)] -= s.duration();
        return self;
    }

    /** Write every span as a Chrome trace-event "complete" event. */
    void
    writeChromeTrace(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            util::fatal("cannot write trace file '%s'", path.c_str());
        std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"id\":%zu,\"parent\":%d,\"requests\":%llu,"
                         "\"blocks\":%llu,\"label\":\"%s\"}}\n",
                         i ? "," : "", s.name, s.shard + 1,
                         static_cast<double>(s.start_ns) / 1e3,
                         static_cast<double>(s.duration()) / 1e3, i,
                         s.parent,
                         static_cast<unsigned long long>(s.requests),
                         static_cast<unsigned long long>(s.blocks),
                         s.label ? s.label : "");
        }
        std::fputs("]}\n", f);
        if (std::fclose(f) != 0)
            util::fatal("cannot finish trace file '%s'", path.c_str());
    }

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** RAII span: begins on construction, ends on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &tracer, const char *name, int32_t shard = -1,
              const char *label = nullptr)
        : tracer_(tracer), index_(tracer.begin(name, shard, label))
    {
    }
    ~SpanScope() { tracer_.end(index_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Record the work the span covered (no timing effect). */
    void
    count(uint64_t requests, uint64_t blocks)
    {
        Span &s = tracer_.span(index_);
        s.requests = requests;
        s.blocks = blocks;
    }

  private:
    Tracer &tracer_;
    size_t index_;
};

} // namespace bench_e2e
} // namespace sievestore

#endif // SIEVESTORE_BENCH_E2E_SPAN_TRACE_HPP
