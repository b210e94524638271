/**
 * @file
 * Unit tests for the MSR-Cambridge CSV trace reader/writer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/merge.hpp"
#include "trace/msr_csv.hpp"
#include "util/alloc_guard.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore::trace;
using sievestore::util::FatalError;

class MsrCsvTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ensemble = EnsembleConfig::paperEnsemble();
        path = std::filesystem::temp_directory_path() /
               ("msr_test_" + std::to_string(::getpid()) + ".csv");
    }

    void
    TearDown() override
    {
        std::error_code ec;
        std::filesystem::remove(path, ec);
    }

    void
    writeLines(const std::string &content)
    {
        std::ofstream out(path);
        out << content;
    }

    /** Expect `record`, alone in the file, to be skipped as malformed. */
    void
    expectMalformed(const std::string &record)
    {
        writeLines(record + "\n");
        MsrCsvReader reader(path.string(), ensemble);
        Request r;
        EXPECT_FALSE(reader.next(r)) << record;
        EXPECT_EQ(reader.skipCounts().malformed, 1u) << record;
        EXPECT_EQ(reader.skipped(), 1u) << record;
    }

    EnsembleConfig ensemble;
    std::filesystem::path path;
};

TEST_F(MsrCsvTest, ParsesBasicRecord)
{
    // 128166372003061629 ticks is a realistic MSR timestamp.
    writeLines("128166372003061629,usr,0,Read,4096,8192,120000\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.server, ensemble.serverByKey("Usr").id);
    EXPECT_EQ(r.volume, ensemble.serverByKey("Usr").volume_ids[0]);
    EXPECT_EQ(r.op, Op::Read);
    EXPECT_EQ(r.offset_blocks, 8u);   // 4096 / 512
    EXPECT_EQ(r.length_blocks, 16u);  // 8192 / 512
    EXPECT_EQ(r.latency_us, 12000u);  // 120000 ticks / 10
    EXPECT_FALSE(reader.next(r));
}

TEST_F(MsrCsvTest, OriginIsPrecedingCalendarMidnight)
{
    writeLines("128166372003061629,web,1,Write,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(reader.originTicks() % kTicksPerDay, 0u);
    EXPECT_LE(reader.originTicks(), 128166372003061629ULL);
    EXPECT_LT(128166372003061629ULL - reader.originTicks(), kTicksPerDay);
    EXPECT_EQ(r.time,
              (128166372003061629ULL - reader.originTicks()) / 10);
}

TEST_F(MsrCsvTest, UnalignedByteExtentRoundsOutward)
{
    // Bytes [700, 1500) touch blocks 1 and 2.
    writeLines("864000000000,prxy,0,Read,700,800,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.offset_blocks, 1u);
    EXPECT_EQ(r.length_blocks, 2u);
}

TEST_F(MsrCsvTest, ZeroSizeTouchesOneBlock)
{
    writeLines("864000000000,prxy,0,Read,1024,0,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.length_blocks, 1u);
}

TEST_F(MsrCsvTest, SkipsUnknownHosts)
{
    writeLines("864000000000,mystery,0,Read,0,512,10\n"
               "864000000001,usr,0,Read,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.server, ensemble.serverByKey("Usr").id);
    EXPECT_EQ(reader.skipped(), 1u);
}

TEST_F(MsrCsvTest, SkipsOutOfRangeDisk)
{
    // Ts has a single volume; disk 5 does not exist.
    writeLines("864000000000,ts,5,Read,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    EXPECT_FALSE(reader.next(r));
    EXPECT_EQ(reader.skipped(), 1u);
}

TEST_F(MsrCsvTest, MalformedLinesAreSkippedAndCounted)
{
    writeLines("not,enough,fields\n"
               "864000000000,usr,0,Read,0,512,10,extra\n"
               "86400000000x,usr,0,Read,0,512,10\n"
               "864000000000,usr,-1,Read,0,512,10\n"
               "864000000000,usr,0,Read,0,18446744073709551616,10\n"
               "864000000001,usr,0,Read,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.time, 0u);
    EXPECT_FALSE(reader.next(r));
    EXPECT_EQ(reader.skipCounts().malformed, 5u);
    EXPECT_EQ(reader.skipped(), 5u);
}

TEST_F(MsrCsvTest, WrappedByteExtentIsMalformed)
{
    // offset + size passes 2^64; it used to wrap to a 9-block request
    // at block 0xffffffffffff.
    expectMalformed("864000000000,usr,0,Read,18446744073709551615,4096,10");
}

TEST_F(MsrCsvTest, RequestOf2TiBIsMalformed)
{
    // 2^32 blocks: the length used to truncate to 0.
    expectMalformed("864000000000,usr,0,Read,0,2199023255552,10");
}

TEST_F(MsrCsvTest, RequestOf2TiBLess512IsMalformed)
{
    // 2^32 - 1 blocks: a length no 32-bit block walk can finish.
    expectMalformed("864000000000,usr,0,Read,0,2199023255040,10");
}

TEST_F(MsrCsvTest, LatencyPast32BitsIsMalformed)
{
    // 9 999 999 999 999 us; it used to truncate to 1 316 134 911.
    expectMalformed("864000000000,usr,0,Read,0,512,99999999999999");
}

TEST_F(MsrCsvTest, EndBlockPast48BitsIsMalformed)
{
    // The last block touched is 2^48: past BlockId's block field.
    expectMalformed("864000000000,usr,0,Read,144115188075855872,512,10");
}

TEST_F(MsrCsvTest, LargestExtentsThatFitAreAccepted)
{
    // Last block 2^48 - 1, a 2^31-block request, a 2^32 - 1 us latency.
    writeLines("864000000000,usr,0,Read,144115188075855360,512,10\n"
               "864000000000,usr,0,Read,0,1099511627776,10\n"
               "864000000000,usr,0,Read,0,512,42949672959\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.offset_blocks + r.length_blocks - 1, kBlockNrMask);
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.length_blocks, kMaxRequestBlocks);
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.latency_us, UINT32_MAX);
    EXPECT_EQ(reader.skipped(), 0u);
}

TEST_F(MsrCsvTest, OutOfOrderAndEarlyRecordsAreSkippedByReason)
{
    const uint64_t origin = 10 * kTicksPerDay;
    writeLines(std::to_string(origin + 50) + ",usr,0,Read,0,512,10\n" +
               std::to_string(origin - 1) + ",usr,0,Read,0,512,10\n" +
               std::to_string(origin + 40) + ",usr,0,Read,0,512,10\n" +
               std::to_string(origin + 50) + ",usr,0,Read,512,512,10\n" +
               std::to_string(origin + 60) + ",usr,0,Read,0,512,10\n");
    MsrCsvReader reader(path.string(), ensemble, origin);
    const std::vector<Request> got = drain(reader);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].time, 5u);
    EXPECT_EQ(got[1].offset_blocks, 1u); // equal timestamps are in order
    EXPECT_EQ(got[2].time, 6u);
    const auto &skips = reader.skipCounts();
    EXPECT_EQ(skips.before_origin, 1u);
    EXPECT_EQ(skips.out_of_order, 1u);
    EXPECT_EQ(reader.skipped(), 2u);
}

TEST_F(MsrCsvTest, SkipsAreCountedAgainAfterReset)
{
    writeLines("bad\n864000000000,usr,0,Read,0,512,10\nworse\n");
    MsrCsvReader reader(path.string(), ensemble);
    EXPECT_EQ(drain(reader).size(), 1u);
    EXPECT_EQ(reader.skipped(), 2u);
    reader.reset();
    EXPECT_EQ(reader.skipped(), 0u);
    EXPECT_EQ(drain(reader).size(), 1u);
    EXPECT_EQ(reader.skipped(), 2u);
}

TEST_F(MsrCsvTest, LineLongerThanTheReadBufferParses)
{
    // 200 KB of padding before the last field: the buffer must grow.
    writeLines("864000000000,usr,0,Write,512,512," +
               std::string(200000, ' ') + "10\n"
               "864000000001,usr,0,Read,0,512,10");
    MsrCsvReader reader(path.string(), ensemble);
    const std::vector<Request> got = drain(reader);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].op, Op::Write);
    EXPECT_EQ(got[0].latency_us, 1u);
    EXPECT_EQ(got[1].op, Op::Read);
    EXPECT_EQ(reader.skipped(), 0u);
}

TEST_F(MsrCsvTest, NextBatchRunsWithoutAllocating)
{
    std::string content;
    for (uint64_t i = 0; i < 5000; ++i)
        content += std::to_string(864000000000ULL + i) +
                   ",Prxy,0,Read,0,512,10\r\n";
    writeLines(content + "garbage\n");
    MsrCsvReader reader(path.string(), ensemble);
    std::vector<Request> buf(256);
    size_t total = 0;
    {
        // The warning for the bad line allocates under its own disarm.
        SIEVE_ASSERT_NO_ALLOC;
        for (;;) {
            const size_t n = reader.nextBatch(std::span<Request>(buf));
            if (n == 0)
                break;
            total += n;
        }
    }
    EXPECT_EQ(total, 5000u);
    EXPECT_EQ(reader.skipped(), 1u);
}

TEST_F(MsrCsvTest, SharedOriginOrdersFilesAcrossDays)
{
    // A web record at 25 h and a usr record at 23 h, each in its own
    // file. Each file on its own picks its own midnight, so web would
    // land at 1 h of its day 0, ahead of usr. One shared origin keeps
    // both on one clock.
    const uint64_t midnight = 1000 * kTicksPerDay;
    const uint64_t hour = kTicksPerDay / 24;
    const auto usr_path = path.string() + ".usr";
    const auto web_path = path.string() + ".web";
    {
        std::ofstream(usr_path)
            << midnight + 23 * hour << ",usr,0,Read,0,512,10\n";
        std::ofstream(web_path)
            << midnight + 25 * hour << ",web,0,Read,0,512,10\n";
    }
    const std::vector<std::string> paths{web_path, usr_path};
    const uint64_t origin = msrSharedOrigin(paths, ensemble);
    EXPECT_EQ(origin, midnight);

    std::vector<std::unique_ptr<TraceReader>> readers;
    for (const std::string &p : paths)
        readers.push_back(
            std::make_unique<MsrCsvReader>(p, ensemble, origin));
    MergedTrace merged(std::move(readers));
    const std::vector<Request> got = drain(merged);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].server, ensemble.serverByKey("Usr").id);
    EXPECT_EQ(sievestore::util::dayOf(got[0].time), 0u);
    EXPECT_EQ(got[1].server, ensemble.serverByKey("Web").id);
    EXPECT_EQ(sievestore::util::dayOf(got[1].time), 1u);
    std::remove(usr_path.c_str());
    std::remove(web_path.c_str());
}

TEST_F(MsrCsvTest, SharedOriginOfEmptyFilesIsAutoDetect)
{
    writeLines("# nothing here\n");
    EXPECT_EQ(msrSharedOrigin({path.string()}, ensemble), 0u);
}

TEST_F(MsrCsvTest, CommentsAndBlankLinesIgnored)
{
    writeLines("# header comment\n"
               "\n"
               "864000000000,usr,0,Write,512,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.op, Op::Write);
}

TEST_F(MsrCsvTest, MissingFileIsFatal)
{
    EXPECT_THROW(MsrCsvReader("/no/such/file.csv", ensemble), FatalError);
}

TEST_F(MsrCsvTest, WriterReaderRoundTrip)
{
    const uint64_t origin = 1000 * kTicksPerDay;
    {
        MsrCsvWriter writer(path.string(), ensemble, origin);
        Request r;
        r.time = 12345678;
        r.server = ensemble.serverByKey("Src1").id;
        r.volume = ensemble.serverByKey("Src1").volume_ids[2];
        r.op = Op::Write;
        r.offset_blocks = 999;
        r.length_blocks = 7;
        r.latency_us = 4321;
        writer.write(r);
        writer.close();
        EXPECT_EQ(writer.written(), 1u);
    }
    MsrCsvReader reader(path.string(), ensemble, origin);
    Request r;
    ASSERT_TRUE(reader.next(r));
    EXPECT_EQ(r.time, 12345678u);
    EXPECT_EQ(r.server, ensemble.serverByKey("Src1").id);
    EXPECT_EQ(r.volume, ensemble.serverByKey("Src1").volume_ids[2]);
    EXPECT_EQ(r.op, Op::Write);
    EXPECT_EQ(r.offset_blocks, 999u);
    EXPECT_EQ(r.length_blocks, 7u);
    EXPECT_EQ(r.latency_us, 4321u);
}

TEST_F(MsrCsvTest, ResetRestartsStream)
{
    writeLines("864000000000,usr,0,Read,0,512,10\n"
               "864000000001,usr,0,Read,512,512,10\n");
    MsrCsvReader reader(path.string(), ensemble);
    Request r;
    int count = 0;
    while (reader.next(r))
        ++count;
    EXPECT_EQ(count, 2);
    reader.reset();
    count = 0;
    while (reader.next(r))
        ++count;
    EXPECT_EQ(count, 2);
}

} // namespace
