/**
 * @file
 * MSR-Cambridge block-trace CSV format.
 *
 * The paper's traces [14, 15] are the MSR Cambridge enterprise traces,
 * distributed as CSV with one record per request:
 *
 *   timestamp,hostname,disk,type,offset,size,duration
 *
 * where timestamp and duration are Windows FILETIME ticks (100 ns),
 * hostname is the server key ("usr", "prxy", ...), disk is the volume
 * index within the server, type is "Read"/"Write", and offset/size are
 * bytes. This reader maps records onto an EnsembleConfig, converts times
 * to microseconds relative to the calendar midnight preceding the first
 * record (the paper analyzes by calendar day, so a 5pm trace start lands
 * inside day 0), and converts byte extents to 512-byte block extents.
 *
 * With the real MSR traces on disk, every experiment in this repository
 * runs on them unmodified; without them, the synthetic generator stands
 * in (see synthetic.hpp).
 */

#ifndef SIEVESTORE_TRACE_MSR_CSV_HPP
#define SIEVESTORE_TRACE_MSR_CSV_HPP

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "trace/ensemble.hpp"
#include "trace/trace_reader.hpp"

namespace sievestore {
namespace trace {

/** FILETIME ticks (100 ns) per microsecond. */
constexpr uint64_t kTicksPerUs = 10;
/** FILETIME ticks per day. */
constexpr uint64_t kTicksPerDay = 24ULL * 3600 * 1000 * 1000 * kTicksPerUs;

/**
 * Streaming reader for one MSR-format CSV file.
 *
 * The file is read in chunks into one buffer and each line is parsed in
 * one pass without allocating. Blank lines and lines starting with '#' are
 * ignored. No record's content ends the process: a record the reader
 * cannot use is skipped and counted by reason (SkipCounts), with one
 * warning per reason per file naming the file and the line. Failing to
 * open, read or rewind the file is fatal. Yielded requests are
 * time-ordered; merging per-server files is done with MergedTrace
 * (merge.hpp), with one origin for all of them (msrSharedOrigin()).
 */
class MsrCsvReader : public TraceReader
{
  public:
    /** Records skipped so far, by reason; skipped() is their sum. */
    struct SkipCounts
    {
        /** Not seven fields, a numeric field that is not a decimal
         * uint64, or an extent or latency a Request cannot hold. */
        uint64_t malformed = 0;
        /** Hostname not in the ensemble. */
        uint64_t unknown_host = 0;
        /** Disk index past the host's volumes. */
        uint64_t unknown_disk = 0;
        /** Timestamp before the origin. */
        uint64_t before_origin = 0;
        /** Timestamp earlier than the previous record yielded from
         * the same file. */
        uint64_t out_of_order = 0;

        uint64_t
        total() const
        {
            return malformed + unknown_host + unknown_disk +
                   before_origin + out_of_order;
        }
    };

    /**
     * @param path         CSV file path
     * @param ensemble     maps hostnames/disks to volumes
     * @param origin_ticks FILETIME origin subtracted from timestamps; 0
     *                     selects the calendar midnight preceding the
     *                     first record
     */
    MsrCsvReader(const std::string &path, const EnsembleConfig &ensemble,
                 uint64_t origin_ticks = 0);

    bool next(Request &out) override;
    /** Decode straight out of the read buffer; allocation-free. */
    size_t nextBatch(std::span<Request> out) override;
    /** Rewind to the first record and zero the skip counts. */
    void reset() override;

    /** Origin actually used (after auto-detection). */
    uint64_t originTicks() const { return origin; }

    /** Number of records skipped, for any reason. */
    uint64_t skipped() const { return skips.total(); }

    /** Records skipped, by reason. */
    const SkipCounts &skipCounts() const { return skips; }

  private:
    /** What parseLine() made of one record. */
    enum class Verdict : uint8_t
    {
        Accept,
        Malformed,
        UnknownHost,
        UnknownDisk,
        BeforeOrigin,
        OutOfOrder,
    };

    /** One ensemble server, keyed by its lowercased hostname. */
    struct Host
    {
        std::string key;
        const ServerInfo *server;
    };

    Verdict parseLine(const char *line, Request &out, const char *&eol);
    const Host *findHost(const char *first, const char *last);
    bool refill();
    void growBuffer();
    void skip(Verdict why, const char *line, const char *eol);

    std::string path;
    const EnsembleConfig &ensemble;
    std::ifstream in;
    /** Read buffer; bytes [pos, end) are not yet parsed, and
     * [pos, lines_end) are whole lines, each ending in '\n'. */
    std::vector<char> buf;
    size_t pos = 0;
    size_t lines_end = 0;
    size_t end = 0;
    bool at_eof = false;
    /** 1-based number of the line last taken from the buffer. */
    uint64_t line_no = 0;
    uint64_t origin;
    bool origin_fixed;
    /** Timestamp of the last record yielded, in ticks. */
    uint64_t last_ticks = 0;
    std::vector<Host> hosts;
    /** Index into hosts of the last match: one file is usually one
     * host. */
    size_t last_host = 0;
    SkipCounts skips;
    /** Bit per Verdict already warned about in this file. */
    uint32_t warned = 0;
};

/**
 * The origin to give every reader of one merged trace: the calendar
 * midnight preceding the earliest first record across `paths`, or 0
 * (auto-detect) when no file holds a usable record. Readers built with
 * origin 0 each pick their own file's midnight, which shifts every file
 * whose trace starts on a later day against the others.
 */
uint64_t msrSharedOrigin(const std::vector<std::string> &paths,
                         const EnsembleConfig &ensemble);

/**
 * Write requests in MSR CSV format (round-trip of MsrCsvReader). Used by
 * tests and by examples/trace_replay to fabricate a sample file.
 */
class MsrCsvWriter
{
  public:
    /**
     * @param path         output file path
     * @param ensemble     supplies hostnames and per-server disk indices
     * @param origin_ticks FILETIME value corresponding to request time 0
     */
    MsrCsvWriter(const std::string &path, const EnsembleConfig &ensemble,
                 uint64_t origin_ticks);

    /** Append one request. */
    void write(const Request &req);

    /** Flush and close the file. */
    void close();

    uint64_t written() const { return count; }

  private:
    const EnsembleConfig &ensemble;
    std::ofstream out;
    uint64_t origin;
    uint64_t count = 0;
};

} // namespace trace
} // namespace sievestore

#endif // SIEVESTORE_TRACE_MSR_CSV_HPP
