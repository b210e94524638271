#include "support/expand.hpp"

namespace sievestore {
namespace trace {

void
expandRequest(const Request &req, std::vector<BlockAccess> &out)
{
    for (uint32_t i = 0; i < req.length_blocks; ++i) {
        BlockAccess a;
        a.time = req.time;
        a.completion = interpolatedCompletion(req, i);
        a.block = req.blockAt(i);
        a.server = req.server;
        a.op = req.op;
        out.push_back(a);
    }
}

BlockAccessStream::BlockAccessStream(TraceReader &reader_)
    : reader(reader_)
{
}

bool
BlockAccessStream::next(BlockAccess &out)
{
    while (true) {
        if (!have_request) {
            if (!reader.next(current))
                return false;
            if (current.length_blocks == 0) {
                // Tolerate zero-length records (seen in some trace
                // captures); they touch no blocks.
                continue;
            }
            have_request = true;
            index = 0;
            ++req_count;
        }
        out.time = current.time;
        out.completion = interpolatedCompletion(current, index);
        out.block = current.blockAt(index);
        out.server = current.server;
        out.op = current.op;
        ++index;
        ++access_count;
        if (index >= current.length_blocks)
            have_request = false;
        return true;
    }
}

void
BlockAccessStream::reset()
{
    reader.reset();
    have_request = false;
    index = 0;
    req_count = 0;
    access_count = 0;
}

} // namespace trace
} // namespace sievestore
