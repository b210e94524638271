#include "trace/trace_reader.hpp"

#include <algorithm>

#include "util/alloc_guard.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace trace {

size_t
TraceReader::nextBatch(std::span<Request> out)
{
    // Generic fallback for readers without a bulk path (test doubles,
    // decorators): one virtual next() per request. What next() does
    // is unknown here, so no batch-wide no-alloc claim is made.
    // sieve-lint: allow(batch-guard)
    size_t produced = 0;
    while (produced < out.size() && next(out[produced]))
        ++produced;
    return produced;
}

VectorTrace::VectorTrace(std::vector<Request> requests)
    : reqs(std::move(requests))
{
    if (!std::is_sorted(reqs.begin(), reqs.end(),
                        [](const Request &a, const Request &b) {
                            return a.time < b.time;
                        })) {
        util::fatal("VectorTrace requires time-sorted requests");
    }
}

bool
VectorTrace::next(Request &out)
{
    if (pos >= reqs.size())
        return false;
    out = reqs[pos++];
    return true;
}

size_t
VectorTrace::nextBatch(std::span<Request> out)
{
    // Bulk copy straight out of the materialized vector — the decode
    // path of every benchmark replay, and allocation-free.
    SIEVE_ASSERT_NO_ALLOC;
    const size_t n = std::min(out.size(), reqs.size() - pos);
    std::copy_n(reqs.begin() + static_cast<ptrdiff_t>(pos), n,
                out.begin());
    pos += n;
    return n;
}

void
VectorTrace::reset()
{
    pos = 0;
}

std::vector<Request>
drain(TraceReader &reader)
{
    std::vector<Request> out;
    Request r;
    while (reader.next(r))
        out.push_back(r);
    return out;
}

} // namespace trace
} // namespace sievestore
