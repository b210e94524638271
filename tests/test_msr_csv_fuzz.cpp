/**
 * @file
 * Byte-level fuzz of MSR CSV ingest. Seeds are MsrCsvWriter output of
 * the synthetic trace; each case applies a few byte flips, inserts,
 * deletes, truncations and duplicated or swapped lines, writes the
 * bytes to a file and reads them back through MsrCsvReader (and, every
 * few cases, through a MergedTrace of several such files). Whatever
 * the bytes:
 *
 *  - nothing aborts or throws;
 *  - yielded plus skipped equals the number of record lines (lines
 *    that are neither empty nor start with '#');
 *  - the output is time-ordered;
 *  - every request has length >= 1, at most kMaxRequestBlocks, and an
 *    end block inside BlockId's 48-bit block field.
 *
 * The case budget scales with SIEVE_FUZZ_ITERS (default 3000; the
 * nightly deep-verify job runs 2M under ASan+UBSan). A hand-corrupted
 * corpus checks the per-reason counts exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "trace/merge.hpp"
#include "trace/msr_csv.hpp"
#include "trace/synthetic.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace {

using namespace sievestore::trace;
using sievestore::util::Rng;
namespace fs = std::filesystem;

constexpr uint64_t kMidnight =
    128166336000000000ULL - 128166336000000000ULL % kTicksPerDay;

uint64_t
fuzzIters()
{
    const char *env = std::getenv("SIEVE_FUZZ_ITERS");
    if (env == nullptr || *env == '\0')
        return 3000;
    return std::strtoull(env, nullptr, 10);
}

/** Lines the reader must yield or skip: not empty, no leading '#'. */
uint64_t
recordLines(const std::string &bytes)
{
    uint64_t n = 0;
    size_t start = 0;
    while (start < bytes.size()) {
        size_t nl = bytes.find('\n', start);
        if (nl == std::string::npos)
            nl = bytes.size();
        if (nl > start && bytes[start] != '#')
            ++n;
        start = nl + 1;
    }
    return n;
}

std::vector<std::string>
splitLines(const std::string &bytes)
{
    std::vector<std::string> lines;
    size_t start = 0;
    while (start < bytes.size()) {
        size_t nl = bytes.find('\n', start);
        if (nl == std::string::npos)
            nl = bytes.size();
        lines.push_back(bytes.substr(start, nl - start));
        start = nl + 1;
    }
    return lines;
}

/** One mutation of `bytes`, chosen and placed by `rng`. */
void
mutate(std::string &bytes, Rng &rng)
{
    static const char kAlphabet[] = "0123456789,,,\n\n\r #-xW";
    const auto at = [&](size_t extra) {
        return static_cast<size_t>(rng.nextBelow(bytes.size() + extra));
    };
    switch (rng.nextBelow(8)) {
    case 0: // flip a bit
        if (!bytes.empty())
            bytes[at(0)] ^= static_cast<char>(1u << rng.nextBelow(8));
        break;
    case 1: // overwrite with any byte
        if (!bytes.empty())
            bytes[at(0)] = static_cast<char>(rng.nextBelow(256));
        break;
    case 2: { // insert CSV-ish bytes
        const size_t pos = at(1);
        const size_t n = 1 + rng.nextBelow(4);
        for (size_t i = 0; i < n; ++i)
            bytes.insert(bytes.begin() + static_cast<ptrdiff_t>(pos),
                         kAlphabet[rng.nextBelow(sizeof(kAlphabet) - 1)]);
        break;
    }
    case 3: { // insert a run of digits (overflowing fields)
        const size_t pos = at(1);
        bytes.insert(pos, std::string(1 + rng.nextBelow(24),
                                      static_cast<char>(
                                          '0' + rng.nextBelow(10))));
        break;
    }
    case 4: // delete a range
        if (!bytes.empty()) {
            const size_t pos = at(0);
            bytes.erase(pos, 1 + rng.nextBelow(12));
        }
        break;
    case 5: // truncate
        bytes.resize(at(1));
        break;
    case 6:   // duplicate a line somewhere else
    case 7: { // or swap two lines (out-of-order records)
        std::vector<std::string> lines = splitLines(bytes);
        if (lines.size() < 2)
            break;
        const size_t a = rng.nextBelow(lines.size());
        const size_t b = rng.nextBelow(lines.size());
        if (rng.nextBelow(2) == 0)
            lines.insert(lines.begin() + static_cast<ptrdiff_t>(b),
                         lines[a]);
        else
            std::swap(lines[a], lines[b]);
        bytes.clear();
        for (const std::string &line : lines)
            bytes += line + '\n';
        break;
    }
    }
}

/** A request the cache can replay: in range and on a real volume. */
bool
checkRequest(const Request &r, const EnsembleConfig &ensemble)
{
    return r.length_blocks >= 1 && r.length_blocks <= kMaxRequestBlocks &&
           r.offset_blocks + r.length_blocks - 1 <= kBlockNrMask &&
           r.server < ensemble.serverCount() &&
           ensemble.volume(r.volume).server == r.server;
}

/** Drain with random next()/nextBatch() sizes. */
std::vector<Request>
drainRandom(TraceReader &reader, Rng &rng)
{
    std::vector<Request> out;
    std::vector<Request> buf(97);
    for (;;) {
        const size_t want = 1 + rng.nextBelow(buf.size());
        const size_t n =
            want == 1 ? (reader.next(buf[0]) ? 1 : 0)
                      : reader.nextBatch(std::span<Request>(buf.data(), want));
        out.insert(out.end(), buf.begin(),
                   buf.begin() + static_cast<ptrdiff_t>(n));
        if (n < want)
            return out;
    }
}

bool
timeOrdered(const std::vector<Request> &reqs)
{
    for (size_t i = 1; i < reqs.size(); ++i)
        if (reqs[i].time < reqs[i - 1].time)
            return false;
    return true;
}

class MsrCsvFuzz : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ensemble = EnsembleConfig::paperEnsemble();
        dir = fs::temp_directory_path() /
              ("msr_fuzz_" + std::to_string(::getpid()));
        fs::create_directories(dir);
        sievestore::util::setLogLevel(sievestore::util::LogLevel::Quiet);
        seeds = makeSeeds();
    }

    void
    TearDown() override
    {
        sievestore::util::setLogLevel(sievestore::util::LogLevel::Inform);
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    /** Writer output of a short synthetic trace, in 48-line pieces. */
    std::vector<std::string>
    makeSeeds()
    {
        SyntheticConfig cfg;
        cfg.scale = 1.0 / 65536.0;
        cfg.duration_hours = 30.0;
        auto gen = SyntheticEnsembleGenerator::paper(ensemble, cfg);
        const std::string path = (dir / "seed.csv").string();
        {
            MsrCsvWriter writer(path, ensemble, kMidnight);
            Request r;
            while (gen.next(r))
                writer.write(r);
            writer.close();
        }
        std::ifstream in(path, std::ios::binary);
        const std::string all((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
        std::vector<std::string> out;
        std::string piece;
        int lines = 0;
        for (const std::string &line : splitLines(all)) {
            piece += line + '\n';
            if (++lines == 48) {
                out.push_back(piece);
                piece.clear();
                lines = 0;
            }
        }
        return out;
    }

    std::string
    writeFile(const std::string &name, const std::string &bytes)
    {
        const std::string path = (dir / name).string();
        std::ofstream(path, std::ios::binary) << bytes;
        return path;
    }

    std::string
    mutant(Rng &rng)
    {
        std::string bytes = seeds[rng.nextBelow(seeds.size())];
        const uint64_t n = 1 + rng.nextBelow(8);
        for (uint64_t i = 0; i < n; ++i)
            mutate(bytes, rng);
        return bytes;
    }

    EnsembleConfig ensemble;
    fs::path dir;
    std::vector<std::string> seeds;
};

TEST_F(MsrCsvFuzz, MutatedCorporaNeverAbortAndCountEveryRecord)
{
    ASSERT_GE(seeds.size(), 4u);
    Rng rng(0xf022c5f);
    const uint64_t iters = fuzzIters();
    for (uint64_t iter = 0; iter < iters; ++iter) {
        const std::string bytes = mutant(rng);
        const std::string path = writeFile("case.csv", bytes);
        const uint64_t origin = rng.nextBool(0.5) ? kMidnight : 0;
        const auto label = [&] {
            return "iteration " + std::to_string(iter) + ", origin " +
                   std::to_string(origin) + ", bytes:\n" + bytes;
        };
        try {
            MsrCsvReader reader(path, ensemble, origin);
            const std::vector<Request> got = drainRandom(reader, rng);
            ASSERT_EQ(got.size() + reader.skipped(), recordLines(bytes))
                << label();
            ASSERT_TRUE(timeOrdered(got)) << label();
            for (const Request &r : got)
                ASSERT_TRUE(checkRequest(r, ensemble)) << label();
            if (iter % 16 == 0) {
                const auto counts = reader.skipCounts();
                reader.reset();
                const std::vector<Request> again = drainRandom(reader, rng);
                ASSERT_EQ(again.size(), got.size()) << label();
                ASSERT_EQ(reader.skipCounts().total(), counts.total())
                    << label();
            }
        } catch (const std::exception &e) {
            FAIL() << "threw '" << e.what() << "' on " << label();
        }
    }
}

TEST_F(MsrCsvFuzz, MergedMutantsStayOrderedAndComplete)
{
    Rng rng(0x3e26ed);
    const uint64_t cases = std::max<uint64_t>(fuzzIters() / 8, 1);
    for (uint64_t c = 0; c < cases; ++c) {
        const size_t k = 1 + rng.nextBelow(4);
        uint64_t lines = 0;
        std::vector<std::unique_ptr<TraceReader>> sources;
        std::vector<const MsrCsvReader *> readers;
        try {
            for (size_t i = 0; i < k; ++i) {
                const std::string bytes = mutant(rng);
                lines += recordLines(bytes);
                auto r = std::make_unique<MsrCsvReader>(
                    writeFile("merge" + std::to_string(i) + ".csv", bytes),
                    ensemble, kMidnight);
                readers.push_back(r.get());
                sources.push_back(std::move(r));
            }
            MergedTrace merged(std::move(sources));
            const std::vector<Request> got = drainRandom(merged, rng);
            uint64_t skipped = 0;
            for (const MsrCsvReader *r : readers)
                skipped += r->skipped();
            ASSERT_EQ(got.size() + skipped, lines) << "case " << c;
            ASSERT_TRUE(timeOrdered(got)) << "case " << c;
            for (const Request &r : got)
                ASSERT_TRUE(checkRequest(r, ensemble)) << "case " << c;
        } catch (const std::exception &e) {
            FAIL() << "threw '" << e.what() << "' in case " << c;
        }
    }
}

TEST_F(MsrCsvFuzz, HandCorruptedCorpusCountsEveryRecordByReason)
{
    // 48 clean records, then one corruption of each kind.
    std::vector<std::string> lines = splitLines(seeds[0]);
    ASSERT_EQ(lines.size(), 48u);
    const std::string &good = lines[20];
    const std::string ticks = good.substr(0, good.find(','));
    const std::string rest = good.substr(good.find(','));
    const std::vector<std::string> malformed = {
        good.substr(0, good.size() / 2),         // truncated
        good + ",7",                             // an eighth field
        "x" + good,                              // bad timestamp
        ticks + ",usr,zero,Read,0,512,10",       // bad disk
        ticks + ",usr,0,Read,0,18446744073709551616,10", // size past 2^64
        ticks + ",usr,0,Read,18446744073709551615,4096,10", // wrapped
        ticks + ",usr,0,Read,0,2199023255552,10",           // 2^32 blocks
        ticks + ",usr,0,Read,0,512,99999999999999",         // latency
        ticks + ",usr,0,Read,144115188075855872,512,10",    // past 48 bits
        std::string(200000, ' '),                // over-long and blank
        "\r",
        std::string("8640") + '\0' + "00000000,usr,0,Read,0,512,10",
    };
    std::string bytes = "# hand-corrupted corpus\n\n";
    for (size_t i = 0; i < lines.size(); ++i) {
        bytes += lines[i] + '\n';
        if (i == 30) {
            for (const std::string &bad : malformed)
                bytes += bad + '\n';
            bytes += ticks + ",nosuchhost,0,Read,0,512,10\n";
            bytes += ticks + ",Ts,3,Read,0,512,10\n";
            bytes += std::to_string(kMidnight - 1) + rest + '\n';
            bytes += lines[0] + '\n'; // earlier than line 30
            bytes += lines[5] + '\n';
        }
    }
    const std::string path = writeFile("corrupt.csv", bytes);
    MsrCsvReader reader(path, ensemble, kMidnight);
    std::vector<Request> got;
    ASSERT_NO_THROW(got = drain(reader));
    EXPECT_EQ(got.size(), 48u);
    EXPECT_TRUE(timeOrdered(got));
    const MsrCsvReader::SkipCounts &s = reader.skipCounts();
    EXPECT_EQ(s.malformed, malformed.size());
    EXPECT_EQ(s.unknown_host, 1u);
    EXPECT_EQ(s.unknown_disk, 1u);
    EXPECT_EQ(s.before_origin, 1u);
    EXPECT_EQ(s.out_of_order, 2u);
    EXPECT_EQ(reader.skipped(), malformed.size() + 5);
}

} // namespace
