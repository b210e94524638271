/**
 * @file
 * Request-to-block expansion: one BlockAccess per covered block.
 *
 * The appliance walks a request's blocks in place and never
 * materializes this expansion; it needs only
 * trace::interpolatedCompletion (trace/request.hpp), each block's
 * completion time linearly interpolated between the request's issue
 * and completion times (Section 4 of the paper). expandRequest and
 * BlockAccessStream are test support: test_expand checks the
 * interpolation through them.
 */

#ifndef SIEVESTORE_TESTS_SUPPORT_EXPAND_HPP
#define SIEVESTORE_TESTS_SUPPORT_EXPAND_HPP

#include <vector>

#include "trace/request.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace trace {

/** Expand a request, appending one BlockAccess per covered block. */
void expandRequest(const Request &req, std::vector<BlockAccess> &out);

/**
 * Streaming expansion adapter: pulls requests from a reader and yields
 * BlockAccesses one at a time without materializing the expansion.
 */
class BlockAccessStream
{
  public:
    explicit BlockAccessStream(TraceReader &reader);

    /** @retval true an access was produced; false at end of trace. */
    bool next(BlockAccess &out);

    /** Restart from the beginning of the underlying trace. */
    void reset();

    /** Requests consumed so far. */
    uint64_t requests() const { return req_count; }
    /** Block accesses produced so far. */
    uint64_t accesses() const { return access_count; }

  private:
    TraceReader &reader;
    Request current;
    uint32_t index = 0;
    bool have_request = false;
    uint64_t req_count = 0;
    uint64_t access_count = 0;
};

} // namespace trace
} // namespace sievestore

#endif // SIEVESTORE_TESTS_SUPPORT_EXPAND_HPP
