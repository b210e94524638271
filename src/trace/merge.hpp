/**
 * @file
 * K-way time-ordered merge of trace sources.
 *
 * The MSR traces ship as one CSV per server; the ensemble-level
 * experiments need a single globally time-ordered stream. MergedTrace
 * merges any set of TraceReaders, pulling each in runs through
 * nextBatch() and emitting the earliest head.
 */

#ifndef SIEVESTORE_TRACE_MERGE_HPP
#define SIEVESTORE_TRACE_MERGE_HPP

#include <memory>
#include <span>
#include <vector>

#include "trace/trace_reader.hpp"

namespace sievestore {
namespace trace {

/**
 * Merge several time-ordered readers into one time-ordered stream.
 * The earliest head goes first; equal times go to the lower source
 * index.
 */
class MergedTrace : public TraceReader
{
  public:
    /** @param sources readers to merge; ownership is taken. */
    explicit MergedTrace(std::vector<std::unique_ptr<TraceReader>> sources);

    bool next(Request &out) override;
    size_t nextBatch(std::span<Request> out) override;
    void reset() override;

  private:
    /** Requests pulled from one source per nextBatch() call. */
    static constexpr size_t kRun = kDefaultBatchRequests;

    /** Source i's pulled requests are runs[i * kRun + [pos, len)). */
    struct Lane
    {
        size_t pos = 0;
        size_t len = 0;
    };

    void prime();
    bool refill(size_t source);

    std::vector<std::unique_ptr<TraceReader>> sources;
    std::vector<Request> runs;
    std::vector<Lane> lanes;
    /** Sources with requests left, in ascending index order. */
    std::vector<size_t> live;
    /** Time of each live source's next request. */
    std::vector<util::TimeUs> head_times;
    bool primed = false;
};

} // namespace trace
} // namespace sievestore

#endif // SIEVESTORE_TRACE_MERGE_HPP
