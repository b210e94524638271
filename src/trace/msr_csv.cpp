#include "trace/msr_csv.hpp"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "util/alloc_guard.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace sievestore {
namespace trace {

namespace {

/**
 * Initial read buffer: about 130 records per read. A merge holds one
 * reader per file, and larger buffers crowd the appliance's tables
 * out of the cache (EXPERIMENTS.md).
 */
constexpr size_t kReadBufferBytes = size_t(8) << 10;

/**
 * C-locale isspace(), less '\n': the buffer holds whole lines only, so
 * every line ends in a '\n' that stops each scan without a bounds check.
 */
inline bool
isBlank(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r' && c != '\n');
}

/** C-locale tolower(). */
inline char
lowerAscii(char c)
{
    return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

inline void
trimBlanks(const char *&first, const char *&last)
{
    while (first != last && isBlank(*first))
        ++first;
    while (last != first && isBlank(last[-1]))
        --last;
}

/** True when [first, last) equals the lowercase `key`, ignoring case. */
inline bool
equalsLower(const char *first, const char *last, std::string_view key)
{
    if (static_cast<size_t>(last - first) != key.size())
        return false;
    for (size_t i = 0; i < key.size(); ++i)
        if (lowerAscii(first[i]) != key[i])
            return false;
    return true;
}

/** Digits [first, last) as a uint64; false past UINT64_MAX. */
bool
checkedDecimal(const char *first, const char *last, uint64_t &value)
{
    uint64_t v = 0;
    for (; first != last; ++first) {
        if (__builtin_mul_overflow(v, uint64_t(10), &v) ||
            __builtin_add_overflow(v, uint64_t(*first - '0'), &v))
            return false;
    }
    value = v;
    return true;
}

/**
 * Parse a decimal field at `p` (blanks, digits, blanks) that `close`
 * must end. Returns the position past `close`, or nullptr when `p` is
 * nullptr, there are no digits, the value passes UINT64_MAX, or
 * anything else comes first.
 */
inline const char *
numberField(const char *p, char close, uint64_t &value)
{
    if (p == nullptr)
        return nullptr;
    while (isBlank(*p))
        ++p;
    const char *digits = p;
    uint64_t v = 0;
    while (static_cast<unsigned char>(*p - '0') < 10) {
        v = v * 10 + static_cast<unsigned char>(*p - '0');
        ++p;
    }
    // Any 19 digits fit; only longer runs (leading zeros or overflow)
    // take the checked path.
    if (p == digits || (p - digits > 19 && !checkedDecimal(digits, p, v)))
        return nullptr;
    while (isBlank(*p))
        ++p;
    value = v;
    return *p == close ? p + 1 : nullptr;
}

/**
 * A text field at `p` that a ',' ends, as [first, last) without its
 * blanks. Returns the position past the comma, or nullptr.
 */
inline const char *
textField(const char *p, const char *&first, const char *&last)
{
    if (p == nullptr)
        return nullptr;
    first = p;
    while (*p != ',' && *p != '\n')
        ++p;
    last = p;
    trimBlanks(first, last);
    return *p == ',' ? p + 1 : nullptr;
}

} // namespace

MsrCsvReader::MsrCsvReader(const std::string &path_,
                           const EnsembleConfig &ensemble_,
                           uint64_t origin_ticks)
    : path(path_), ensemble(ensemble_), buf(kReadBufferBytes),
      origin(origin_ticks), origin_fixed(origin_ticks != 0)
{
    // Unbuffered: read() then copies straight into buf, the one buffer.
    in.rdbuf()->pubsetbuf(nullptr, 0);
    in.open(path, std::ios::binary);
    if (!in)
        util::fatal("cannot open MSR trace file '%s'", path.c_str());
    for (const ServerInfo &srv : ensemble.servers())
        hosts.push_back(Host{util::toLower(srv.key), &srv});
}

const MsrCsvReader::Host *
MsrCsvReader::findHost(const char *first, const char *last)
{
    if (last_host < hosts.size() &&
        equalsLower(first, last, hosts[last_host].key))
        return &hosts[last_host];
    // Backwards, so a key listed twice resolves to its last server.
    for (size_t i = hosts.size(); i-- > 0;) {
        if (equalsLower(first, last, hosts[i].key)) {
            last_host = i;
            return &hosts[i];
        }
    }
    return nullptr;
}

MsrCsvReader::Verdict
MsrCsvReader::parseLine(const char *line, Request &out, const char *&eol)
{
    uint64_t ticks = 0, disk = 0, offset = 0, size = 0, duration = 0;
    const char *host_first = nullptr, *host_last = nullptr;
    const char *type_first = nullptr, *type_last = nullptr;
    const char *p = numberField(line, ',', ticks);
    p = textField(p, host_first, host_last);
    p = numberField(p, ',', disk);
    p = textField(p, type_first, type_last);
    p = numberField(p, ',', offset);
    p = numberField(p, ',', size);
    p = numberField(p, '\n', duration);
    if (p == nullptr) {
        eol = static_cast<const char *>(
            std::memchr(line, '\n', static_cast<size_t>(
                                        buf.data() + lines_end - line)));
        return Verdict::Malformed;
    }
    eol = p - 1;

    const Host *host = findHost(host_first, host_last);
    if (host == nullptr)
        return Verdict::UnknownHost;
    const ServerInfo &srv = *host->server;
    if (disk >= srv.volume_ids.size())
        return Verdict::UnknownDisk;

    // A request that touches any byte of a block accesses the block.
    // Reject what a Request cannot hold: a wrapped byte extent, an end
    // past BlockId's block-number field, a length past
    // kMaxRequestBlocks, a latency past 32 bits of microseconds.
    uint64_t end_byte = 0;
    if (__builtin_add_overflow(offset, size == 0 ? 1 : size, &end_byte))
        return Verdict::Malformed;
    const uint64_t first_block = offset / kBlockBytes;
    const uint64_t end_block =
        end_byte / kBlockBytes + (end_byte % kBlockBytes != 0 ? 1 : 0);
    const uint64_t latency = duration / kTicksPerUs;
    if (end_block > kBlockNrMask + 1 ||
        end_block - first_block > kMaxRequestBlocks ||
        latency > UINT32_MAX)
        return Verdict::Malformed;

    if (!origin_fixed) {
        // Calendar midnight preceding the first record, so calendar-day
        // analysis matches the paper's partitioning.
        origin = (ticks / kTicksPerDay) * kTicksPerDay;
        origin_fixed = true;
    }
    if (ticks < origin)
        return Verdict::BeforeOrigin;
    if (ticks < last_ticks)
        return Verdict::OutOfOrder;
    last_ticks = ticks;

    const size_t type_len = static_cast<size_t>(type_last - type_first);
    const bool write =
        (type_len == 1 && lowerAscii(type_first[0]) == 'w') ||
        equalsLower(type_first, type_last, "write");

    out.time = (ticks - origin) / kTicksPerUs;
    out.volume = srv.volume_ids[disk];
    out.server = srv.id;
    out.op = write ? Op::Write : Op::Read;
    out.offset_blocks = first_block;
    out.length_blocks = static_cast<uint32_t>(end_block - first_block);
    out.latency_us = static_cast<uint32_t>(latency);
    return Verdict::Accept;
}

void
MsrCsvReader::growBuffer()
{
    // A line longer than the buffer: the one allocation after
    // construction.
    util::AllocGuardDisarm disarm;
    buf.resize(buf.size() * 2);
}

bool
MsrCsvReader::refill()
{
    while (pos == lines_end) {
        if (at_eof)
            return false;
        // Keep the partial line and read more after it.
        std::memmove(buf.data(), buf.data() + pos, end - pos);
        end -= pos;
        pos = 0;
        if (end == buf.size())
            growBuffer();
        in.read(buf.data() + end,
                static_cast<std::streamsize>(buf.size() - end));
        if (in.bad())
            util::fatal("cannot read MSR trace file '%s'", path.c_str());
        end += static_cast<size_t>(in.gcount());
        at_eof = in.eof();
        if (at_eof && end > 0 && buf[end - 1] != '\n') {
            // The last line has no newline; give it one.
            if (end == buf.size())
                growBuffer();
            buf[end++] = '\n';
        }
        lines_end = end;
        while (lines_end > 0 && buf[lines_end - 1] != '\n')
            --lines_end;
    }
    return true;
}

void
MsrCsvReader::skip(Verdict why, const char *line, const char *eol)
{
    // Indexed by Verdict.
    static constexpr uint64_t SkipCounts::*kCount[] = {
        nullptr, &SkipCounts::malformed, &SkipCounts::unknown_host,
        &SkipCounts::unknown_disk, &SkipCounts::before_origin,
        &SkipCounts::out_of_order};
    static constexpr const char *kWhat[] = {
        "", "malformed record", "record for a host outside the ensemble",
        "record for a disk outside the ensemble",
        "record timestamped before the trace origin",
        "record timestamped before the previous record"};
    const auto i = static_cast<size_t>(why);
    ++(skips.*kCount[i]);
    if ((warned & (1u << i)) != 0)
        return;
    warned |= 1u << i;
    util::AllocGuardDisarm disarm;
    util::warn("%s:%llu: skipping %s '%.*s' (further ones in this file "
               "are skipped silently)",
               path.c_str(), static_cast<unsigned long long>(line_no),
               kWhat[i], static_cast<int>(std::min<ptrdiff_t>(eol - line, 120)),
               line);
}

size_t
MsrCsvReader::nextBatch(std::span<Request> out)
{
    SIEVE_ASSERT_NO_ALLOC;
    size_t produced = 0;
    while (produced < out.size() && (pos < lines_end || refill())) {
        const char *line = buf.data() + pos;
        const char *eol = line;
        ++line_no;
        if (*line == '#')
            eol = static_cast<const char *>(std::memchr(
                line, '\n', static_cast<size_t>(lines_end - pos)));
        if (*line != '\n' && *line != '#') {
            const Verdict verdict = parseLine(line, out[produced], eol);
            if (verdict == Verdict::Accept)
                ++produced;
            else
                skip(verdict, line, eol);
        }
        pos = static_cast<size_t>(eol - buf.data()) + 1;
    }
    return produced;
}

bool
MsrCsvReader::next(Request &out)
{
    return nextBatch(std::span<Request>(&out, 1)) == 1;
}

void
MsrCsvReader::reset()
{
    in.clear();
    in.seekg(0);
    if (!in)
        util::fatal("cannot rewind MSR trace file '%s'", path.c_str());
    pos = end = lines_end = 0;
    at_eof = false;
    line_no = 0;
    last_ticks = 0;
    skips = SkipCounts{};
}

uint64_t
msrSharedOrigin(const std::vector<std::string> &paths,
                const EnsembleConfig &ensemble)
{
    uint64_t origin = 0;
    for (const std::string &path : paths) {
        MsrCsvReader reader(path, ensemble);
        Request first;
        if (reader.next(first) &&
            (origin == 0 || reader.originTicks() < origin))
            origin = reader.originTicks();
    }
    return origin;
}

MsrCsvWriter::MsrCsvWriter(const std::string &path,
                           const EnsembleConfig &ensemble_,
                           uint64_t origin_ticks)
    : ensemble(ensemble_), out(path), origin(origin_ticks)
{
    if (!out)
        util::fatal("cannot create MSR trace file '%s'", path.c_str());
}

void
MsrCsvWriter::write(const Request &req)
{
    const ServerInfo &srv = ensemble.server(req.server);
    const VolumeInfo &vol = ensemble.volume(req.volume);
    const uint64_t ticks = origin + req.time * kTicksPerUs;
    out << ticks << ',' << util::toLower(srv.key) << ','
        << vol.index_in_server << ','
        << (req.op == Op::Write ? "Write" : "Read") << ','
        << req.offset_blocks * kBlockBytes << ',' << req.bytes() << ','
        << uint64_t(req.latency_us) * kTicksPerUs << '\n';
    ++count;
}

void
MsrCsvWriter::close()
{
    out.close();
}

} // namespace trace
} // namespace sievestore
