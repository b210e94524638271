/**
 * @file
 * Trace source abstraction.
 *
 * A TraceReader yields time-ordered Requests. Concrete sources: in-memory
 * vectors (tests), MSR-Cambridge CSV files (real traces), the compact
 * binary format (cached synthetic traces), and the synthetic generator.
 */

#ifndef SIEVESTORE_TRACE_TRACE_READER_HPP
#define SIEVESTORE_TRACE_TRACE_READER_HPP

#include <cstddef>
#include <span>
#include <vector>

#include "trace/request.hpp"

namespace sievestore {
namespace trace {

/**
 * Default decode-batch size for the batched replay path: how many
 * requests a driver pulls per nextBatch() call. 64 requests (~2 KB)
 * amortize the virtual decode call and the downstream hand-off
 * without outgrowing L1.
 */
inline constexpr size_t kDefaultBatchRequests = 64;

/**
 * Pull-based request source. next() returns false at end of trace.
 * Implementations must yield requests in non-decreasing time order;
 * consumers may rely on it.
 */
class TraceReader
{
  public:
    virtual ~TraceReader() = default;

    /**
     * Fetch the next request.
     * @param out filled on success
     * @retval true a request was produced; false at end of stream
     */
    virtual bool next(Request &out) = 0;

    /**
     * Decode up to out.size() requests in one call, returning how many
     * were produced; fewer than out.size() only at end of stream. The
     * stream is interchangeable with next(): concatenating nextBatch()
     * results yields exactly the per-call sequence (property-tested
     * for every reader), and the two forms may be mixed freely. The
     * base implementation loops next(); every reader under src/
     * overrides it to decode without per-request virtual dispatch.
     */
    virtual size_t nextBatch(std::span<Request> out);

    /** Restart the stream from the beginning. */
    virtual void reset() = 0;
};

/** TraceReader over an in-memory, time-sorted request vector. */
class VectorTrace : public TraceReader
{
  public:
    /** @param requests must already be sorted by requestTimeLess. */
    explicit VectorTrace(std::vector<Request> requests);

    bool next(Request &out) override;
    size_t nextBatch(std::span<Request> out) override;
    void reset() override;

    const std::vector<Request> &requests() const { return reqs; }
    size_t size() const { return reqs.size(); }

  private:
    std::vector<Request> reqs;
    size_t pos = 0;
};

/** Drain a reader into a vector (for tests and small traces). */
std::vector<Request> drain(TraceReader &reader);

} // namespace trace
} // namespace sievestore

#endif // SIEVESTORE_TRACE_TRACE_READER_HPP
