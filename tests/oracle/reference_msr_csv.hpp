/**
 * @file
 * Reference MSR CSV ingest: the line-at-a-time reader (std::getline, a
 * split into field views, lowercased copies of host and type, a hash
 * map from host to server) and the binary-heap k-way merge that
 * trace::MsrCsvReader and trace::MergedTrace replaced.
 *
 * Kept only as the oracle the buffered reader and the batched merge
 * are differenced against. A malformed record or a timestamp before
 * the origin throws util::FatalError after the line is consumed, so a
 * caller can catch, count and keep reading. Records for an unknown
 * host or disk are skipped and counted, as before.
 */

#ifndef SIEVESTORE_TESTS_ORACLE_REFERENCE_MSR_CSV_HPP
#define SIEVESTORE_TESTS_ORACLE_REFERENCE_MSR_CSV_HPP

#include <cstdint>
#include <fstream>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/ensemble.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace oracle {

/** Line-at-a-time MSR CSV reader; fatal on a malformed record. */
class ReferenceMsrCsvReader : public trace::TraceReader
{
  public:
    /** Same arguments as trace::MsrCsvReader. */
    ReferenceMsrCsvReader(const std::string &path,
                          const trace::EnsembleConfig &ensemble,
                          uint64_t origin_ticks = 0);

    bool next(trace::Request &out) override;
    void reset() override;

    uint64_t originTicks() const { return origin; }

    /** Records skipped for an unknown host or disk. */
    uint64_t skipped() const { return skipped_records; }

  private:
    bool parseLine(const std::string &line, trace::Request &out);

    std::string path;
    const trace::EnsembleConfig &ensemble;
    std::ifstream in;
    uint64_t origin;
    bool origin_fixed;
    uint64_t skipped_records = 0;
    std::unordered_map<std::string, trace::ServerId> host_map;
};

/** Heap-based k-way merge: one pop and one push per request. */
class ReferenceMergedTrace : public trace::TraceReader
{
  public:
    explicit ReferenceMergedTrace(
        std::vector<std::unique_ptr<trace::TraceReader>> sources);

    bool next(trace::Request &out) override;
    void reset() override;

  private:
    struct HeapEntry
    {
        trace::Request req;
        size_t source;
    };
    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            // Min-heap on time; tie-break on source index.
            if (a.req.time != b.req.time)
                return a.req.time > b.req.time;
            return a.source > b.source;
        }
    };

    void prime();

    std::vector<std::unique_ptr<trace::TraceReader>> sources;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> heap;
    bool primed = false;
};

} // namespace oracle
} // namespace sievestore

#endif // SIEVESTORE_TESTS_ORACLE_REFERENCE_MSR_CSV_HPP
