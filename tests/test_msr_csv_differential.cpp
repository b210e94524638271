/**
 * @file
 * Differential test of MSR CSV ingest: trace::MsrCsvReader and
 * trace::MergedTrace against the line-at-a-time reader and the heap
 * merge they replaced (tests/oracle/reference_msr_csv.hpp).
 *
 * Where the reference accepts a line, both yield the same request.
 * Where the reference throws, the reader skips the line as malformed
 * or before the origin. Unknown hosts and disks are skipped by both.
 * The only other differences are the records the reader newly
 * rejects, listed per case: extents or latencies a Request cannot
 * hold (malformed) and timestamps earlier than the previous record of
 * the file (out of order). The check runs the reference on the input
 * with those lines removed.
 *
 * Inputs: MsrCsvWriter corpora of the synthetic week, one file per
 * server, and hand-written edge cases.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "oracle/reference_msr_csv.hpp"
#include "trace/merge.hpp"
#include "trace/msr_csv.hpp"
#include "trace/synthetic.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::trace;
using sievestore::oracle::ReferenceMergedTrace;
using sievestore::oracle::ReferenceMsrCsvReader;
using sievestore::util::FatalError;
using sievestore::util::Rng;
namespace fs = std::filesystem;

/** A calendar midnight, as FILETIME ticks. */
constexpr uint64_t kMidnight =
    128166336000000000ULL - 128166336000000000ULL % kTicksPerDay;

bool
sameRequest(const Request &a, const Request &b)
{
    return a.time == b.time && a.offset_blocks == b.offset_blocks &&
           a.length_blocks == b.length_blocks &&
           a.latency_us == b.latency_us && a.volume == b.volume &&
           a.server == b.server && a.op == b.op;
}

void
expectSameStream(const std::vector<Request> &want,
                 const std::vector<Request> &got, const std::string &label)
{
    ASSERT_EQ(want.size(), got.size()) << label;
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_TRUE(sameRequest(want[i], got[i]))
            << label << ": request " << i << " differs";
}

/** What the reference made of a file, reading past every throw. */
struct ReferenceRun
{
    std::vector<Request> requests;
    uint64_t thrown = 0;
    uint64_t skipped = 0;
};

ReferenceRun
runReference(const std::string &path, const EnsembleConfig &ensemble,
             uint64_t origin)
{
    ReferenceRun run;
    ReferenceMsrCsvReader reader(path, ensemble, origin);
    for (;;) {
        try {
            Request r;
            if (!reader.next(r))
                break;
            run.requests.push_back(r);
        } catch (const FatalError &) {
            ++run.thrown;
        }
    }
    run.skipped = reader.skipped();
    return run;
}

/**
 * Drain with a seeded mix of next() and nextBatch() calls of random
 * sizes; the stream must not depend on how it is pulled.
 */
std::vector<Request>
drainMixed(TraceReader &reader, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Request> out;
    std::vector<Request> buf(200);
    for (;;) {
        if (rng.nextBool(0.3)) {
            Request r;
            if (!reader.next(r))
                break;
            out.push_back(r);
            continue;
        }
        const size_t want = 1 + rng.nextBelow(buf.size());
        const size_t n =
            reader.nextBatch(std::span<Request>(buf.data(), want));
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<ptrdiff_t>(n));
        if (n < want)
            break;
    }
    return out;
}

class MsrCsvDifferential : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ensemble = EnsembleConfig::paperEnsemble();
        dir = fs::temp_directory_path() /
              ("msr_diff_" + std::to_string(::getpid()));
        fs::create_directories(dir);
        sievestore::util::setLogLevel(sievestore::util::LogLevel::Quiet);
    }

    void
    TearDown() override
    {
        sievestore::util::setLogLevel(sievestore::util::LogLevel::Inform);
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    std::string
    writeFile(const std::string &name, const std::string &content)
    {
        const std::string path = (dir / name).string();
        std::ofstream(path, std::ios::binary) << content;
        return path;
    }

    /** One line of an edge-case file, and what the reader does with
     * it that the reference does not. */
    struct Line
    {
        std::string text;
        enum { Same, NewlyMalformed, NewlyOutOfOrder } diff = Same;
    };

    /**
     * The differential on one file: the reader's stream, pulled in a
     * mixed pattern and again after reset(), equals the reference's on
     * the file without the listed lines; the skip counts add up.
     */
    void
    checkFile(const std::string &name, const std::vector<Line> &lines,
              const std::string &terminator, uint64_t origin)
    {
        std::string full, kept;
        uint64_t newly_malformed = 0, newly_out_of_order = 0;
        for (const Line &line : lines) {
            full += line.text + terminator;
            if (line.diff == Line::Same)
                kept += line.text + terminator;
            newly_malformed += line.diff == Line::NewlyMalformed;
            newly_out_of_order += line.diff == Line::NewlyOutOfOrder;
        }
        const std::string path = writeFile(name, full);
        const ReferenceRun want =
            runReference(writeFile(name + ".kept", kept), ensemble, origin);

        MsrCsvReader reader(path, ensemble, origin);
        for (uint64_t pass = 0; pass < 3; ++pass) {
            if (pass > 0)
                reader.reset();
            expectSameStream(want.requests, drainMixed(reader, pass),
                             name + " pass " + std::to_string(pass));
            const MsrCsvReader::SkipCounts &s = reader.skipCounts();
            EXPECT_EQ(s.malformed + s.before_origin,
                      want.thrown + newly_malformed)
                << name;
            EXPECT_EQ(s.out_of_order, newly_out_of_order) << name;
            EXPECT_EQ(s.unknown_host + s.unknown_disk, want.skipped)
                << name;
        }
    }

    EnsembleConfig ensemble;
    fs::path dir;
};

TEST_F(MsrCsvDifferential, SyntheticWeekPerFileAndMerged)
{
    SyntheticConfig cfg;
    cfg.scale = 1.0 / 32768.0;
    auto gen = SyntheticEnsembleGenerator::paper(ensemble, cfg);
    std::vector<std::string> paths;
    std::vector<std::unique_ptr<MsrCsvWriter>> writers;
    for (const ServerInfo &srv : ensemble.servers()) {
        paths.push_back((dir / (srv.key + ".csv")).string());
        writers.push_back(std::make_unique<MsrCsvWriter>(
            paths.back(), ensemble, kMidnight));
    }
    Request req;
    uint64_t written = 0;
    while (gen.next(req)) {
        writers[req.server]->write(req);
        ++written;
    }
    for (auto &w : writers)
        w->close();
    ASSERT_GT(written, 10000u);

    // The shared origin is the writer's; replay with it (as the e2e
    // replay does) and with each file's own.
    EXPECT_EQ(msrSharedOrigin(paths, ensemble), kMidnight);
    for (const uint64_t origin : {kMidnight, uint64_t(0)}) {
        std::vector<std::unique_ptr<TraceReader>> ref_files, new_files;
        std::vector<const MsrCsvReader *> readers;
        for (const std::string &path : paths) {
            const ReferenceRun want = runReference(path, ensemble, origin);
            EXPECT_EQ(want.thrown + want.skipped, 0u) << path;
            MsrCsvReader reader(path, ensemble, origin);
            expectSameStream(want.requests, drainMixed(reader, 7), path);
            EXPECT_EQ(reader.skipped(), 0u) << path;

            ref_files.push_back(std::make_unique<ReferenceMsrCsvReader>(
                path, ensemble, origin));
            auto r = std::make_unique<MsrCsvReader>(path, ensemble, origin);
            readers.push_back(r.get());
            new_files.push_back(std::move(r));
        }
        ReferenceMergedTrace ref_merged(std::move(ref_files));
        MergedTrace merged(std::move(new_files));
        const std::vector<Request> want = drain(ref_merged);
        EXPECT_EQ(want.size(), written);
        expectSameStream(want, drainMixed(merged, 11), "merged");
        merged.reset();
        expectSameStream(want, drainMixed(merged, 12), "merged, reset");
        for (const MsrCsvReader *r : readers)
            EXPECT_EQ(r->skipped(), 0u);
    }
}

TEST_F(MsrCsvDifferential, LineEndingsCaseAndSpacing)
{
    const std::vector<Line> lines = {
        {"864000000000,usr,0,Read,0,512,10"},
        {"864000000001,USR,0,READ,512,4096,20"},
        {"864000000002,Usr,0,wRiTe,1024,700,30"},
        {"864000000003, usr ,\t1 , W ,  0  ,512,\t40\t"},
        {"864000000004,PrXy,1,r,1536,0,50"},
        {"864000000005,prxy,0,Writes,0,512,60"}, // not a write
        {"  864000000006,hm,0,Write,0,512,70"},
    };
    for (const char *eol : {"\n", "\r\n"}) {
        checkFile(std::string("eol") + (eol[0] == '\r' ? "crlf" : "lf"),
                  lines, eol, 0);
        checkFile(std::string("eol_fixed") + (eol[0] == '\r' ? "crlf" : "lf"),
                  lines, eol, kTicksPerDay);
    }
}

TEST_F(MsrCsvDifferential, CommentsBlankLinesAndFinalLine)
{
    const std::vector<Line> lines = {
        {"# MSR Cambridge sample"},
        {""},
        {"864000000000,usr,0,Read,0,512,10"},
        {"#864000000001,usr,0,Read,0,512,10"},
        {" # an indented comment is a malformed record"},
        {"   "},
        {"\r"},
        {"864000000002,usr,0,Read,0,512,10"},
    };
    checkFile("comments", lines, "\n", 0);
    // No newline after the last record.
    const std::string path = writeFile(
        "no_final_newline",
        "864000000000,usr,0,Read,0,512,10\n864000000009,usr,0,Write,0,512,10");
    MsrCsvReader reader(path, ensemble);
    expectSameStream(runReference(path, ensemble, 0).requests,
                     drainMixed(reader, 3), "no final newline");
    EXPECT_EQ(reader.skipped(), 0u);
}

TEST_F(MsrCsvDifferential, EmptyFileAndOnlySkippedRecords)
{
    checkFile("empty", {}, "\n", 0);
    checkFile("skipped",
              {{"864000000000,mystery,0,Read,0,512,10"},
               {"864000000000,ts,5,Read,0,512,10"},
               {"x,y"}},
              "\n", 0);
}

TEST_F(MsrCsvDifferential, LineLongerThanTheReadBuffer)
{
    const std::string pad(300000, ' ');
    checkFile("long",
              {{"864000000000,usr,0,Read,0,512,10"},
               {"864000000001,usr,0,Read," + pad + "512," + pad + "512,10"},
               {"864000000002,usr,0,Read,0,512,10," + pad},
               {"864000000003,usr," + std::string(70000, 'x') + ",Read,0,1,1"},
               {"864000000004,usr,0,Read,0,512,10"}},
              "\n", 0);
}

TEST_F(MsrCsvDifferential, TwentyDigitValues)
{
    checkFile("digits",
              {{"864000000000,usr,0,Read,0,512,10"},
               {"0000000000864000000001,usr,00000000000000000000000,"
                "Read,000000000000000000000512,512,10"},
               {"864000000002,usr,0,Read,0,512,10"},
               // 2^64 is not a uint64; 2^64 - 1 is.
               {"18446744073709551616,usr,0,Read,0,512,10"},
               {"99999999999999999999,usr,0,Read,0,512,10"},
               {"864000000003,usr,0,Read,0,512,18446744073709551615",
                Line::NewlyMalformed},
               {"18446744073709551615,usr,0,Read,0,512,10"}},
              "\n", 0);
}

TEST_F(MsrCsvDifferential, NewlyRejectedRecords)
{
    using L = Line;
    checkFile(
        "rejected",
        {// Extents and latencies a Request cannot hold.
         {"864000000000,usr,0,Read,18446744073709551615,4096,10",
          L::NewlyMalformed},
         {"864000000000,usr,0,Read,0,2199023255552,10", L::NewlyMalformed},
         {"864000000000,usr,0,Read,0,2199023255040,10", L::NewlyMalformed},
         {"864000000000,usr,0,Read,0,512,99999999999999", L::NewlyMalformed},
         {"864000000000,usr,0,Read,144115188075855872,512,10",
          L::NewlyMalformed},
         {"864000000000,usr,0,Read,18446744073709551000,100,10",
          L::NewlyMalformed},
         {"864000000100,usr,0,Read,0,512,10"},
         // Earlier than the record before it.
         {"864000000050,usr,0,Read,0,512,10", L::NewlyOutOfOrder},
         {"864000000100,usr,0,Write,0,512,10"},
         {"864000000099,usr,0,Read,0,512,10", L::NewlyOutOfOrder},
         // Before the origin: the reference throws here too.
         {"863999999999,usr,0,Read,0,512,10"},
         {"864000000200,usr,0,Read,0,512,10"}},
        "\n", 0);
}

TEST_F(MsrCsvDifferential, EqualTimestampsAcrossSources)
{
    // Every file holds the same timestamps: ties go to the lower
    // source index, record after record.
    std::vector<std::string> paths;
    const char *hosts[] = {"wdev", "usr", "prxy", "web"};
    for (const char *host : hosts) {
        std::string content;
        for (int i = 0; i < 300; ++i)
            content += std::to_string(kMidnight + uint64_t(i / 7) * 10) +
                       "," + host + ",0,Read," + std::to_string(512 * i) +
                       ",512,10\n";
        paths.push_back(writeFile(std::string(host) + ".csv", content));
    }
    std::vector<std::unique_ptr<TraceReader>> ref_files, new_files;
    for (const std::string &path : paths) {
        ref_files.push_back(
            std::make_unique<ReferenceMsrCsvReader>(path, ensemble, 0));
        new_files.push_back(
            std::make_unique<MsrCsvReader>(path, ensemble, 0));
    }
    ReferenceMergedTrace ref_merged(std::move(ref_files));
    MergedTrace merged(std::move(new_files));
    const std::vector<Request> want = drain(ref_merged);
    ASSERT_EQ(want.size(), 1200u);
    for (uint64_t seed = 0; seed < 4; ++seed) {
        merged.reset();
        expectSameStream(want, drainMixed(merged, seed),
                         "seed " + std::to_string(seed));
    }
}

TEST_F(MsrCsvDifferential, MergeMatchesHeapOnRandomVectors)
{
    // Sources of very different lengths and densities, with ties.
    Rng rng(0x3e76e);
    for (int round = 0; round < 20; ++round) {
        std::vector<std::unique_ptr<TraceReader>> ref_sources, sources;
        const size_t k = 1 + rng.nextBelow(16);
        for (size_t s = 0; s < k; ++s) {
            std::vector<Request> reqs(rng.nextBelow(400));
            uint64_t t = rng.nextBelow(1000);
            const uint64_t step = 1 + rng.nextBelow(50);
            for (size_t i = 0; i < reqs.size(); ++i) {
                t += rng.nextBelow(step);
                reqs[i].time = t;
                reqs[i].offset_blocks = s * 1000000 + i;
                reqs[i].length_blocks = 1;
                reqs[i].server = static_cast<ServerId>(s);
            }
            ref_sources.push_back(std::make_unique<VectorTrace>(reqs));
            sources.push_back(std::make_unique<VectorTrace>(reqs));
        }
        ReferenceMergedTrace ref_merged(std::move(ref_sources));
        MergedTrace merged(std::move(sources));
        expectSameStream(drain(ref_merged),
                         drainMixed(merged, static_cast<uint64_t>(round)),
                         "round " + std::to_string(round));
    }
}

} // namespace
