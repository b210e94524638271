#include "oracle/reference_msr_csv.hpp"

#include <cctype>
#include <charconv>
#include <string_view>

#include "trace/msr_csv.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace sievestore {
namespace oracle {

using trace::kBlockBytes;
using trace::kTicksPerDay;
using trace::kTicksPerUs;
using trace::Op;
using trace::Request;

namespace {

std::vector<std::string_view>
splitView(std::string_view line, char delim)
{
    std::vector<std::string_view> fields;
    size_t start = 0;
    while (true) {
        const size_t pos = line.find(delim, start);
        if (pos == std::string_view::npos) {
            fields.push_back(line.substr(start));
            break;
        }
        fields.push_back(line.substr(start, pos - start));
        start = pos + 1;
    }
    return fields;
}

std::string_view
trimView(std::string_view sv)
{
    size_t begin = 0;
    size_t end = sv.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(sv[begin]))) {
        ++begin;
    }
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(sv[end - 1]))) {
        --end;
    }
    return sv.substr(begin, end - begin);
}

bool
parseU64(std::string_view sv, uint64_t &out)
{
    sv = trimView(sv);
    if (sv.empty())
        return false;
    const auto *first = sv.data();
    const auto *last = sv.data() + sv.size();
    auto [ptr, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && ptr == last;
}

} // namespace

ReferenceMsrCsvReader::ReferenceMsrCsvReader(
    const std::string &path_, const trace::EnsembleConfig &ensemble_,
    uint64_t origin_ticks)
    : path(path_), ensemble(ensemble_), in(path_), origin(origin_ticks),
      origin_fixed(origin_ticks != 0)
{
    if (!in)
        util::fatal("cannot open MSR trace file '%s'", path.c_str());
    for (const auto &srv : ensemble.servers())
        host_map[util::toLower(srv.key)] = srv.id;
}

bool
ReferenceMsrCsvReader::parseLine(const std::string &line, Request &out)
{
    const auto fields = splitView(line, ',');
    if (fields.size() != 7)
        util::fatal("%s: expected 7 CSV fields, got %zu", path.c_str(),
                    fields.size());

    uint64_t ticks = 0, offset = 0, size = 0, duration = 0;
    if (!parseU64(fields[0], ticks))
        util::fatal("%s: bad timestamp", path.c_str());
    const std::string host = util::toLower(trimView(fields[1]));
    uint64_t disk = 0;
    if (!parseU64(fields[2], disk))
        util::fatal("%s: bad disk index", path.c_str());
    const std::string type = util::toLower(trimView(fields[3]));
    if (!parseU64(fields[4], offset) || !parseU64(fields[5], size) ||
        !parseU64(fields[6], duration)) {
        util::fatal("%s: bad offset/size/duration", path.c_str());
    }

    const auto it = host_map.find(host);
    if (it == host_map.end()) {
        ++skipped_records;
        return false;
    }
    const trace::ServerInfo &srv = ensemble.server(it->second);
    if (disk >= srv.volume_ids.size()) {
        ++skipped_records;
        return false;
    }

    if (!origin_fixed) {
        origin = (ticks / kTicksPerDay) * kTicksPerDay;
        origin_fixed = true;
    }
    if (ticks < origin)
        util::fatal("%s: timestamp before trace origin", path.c_str());

    out.time = (ticks - origin) / kTicksPerUs;
    out.volume = srv.volume_ids[disk];
    out.server = srv.id;
    out.op = (type == "write" || type == "w") ? Op::Write : Op::Read;
    out.offset_blocks = offset / kBlockBytes;
    const uint64_t end_byte = offset + (size == 0 ? 1 : size);
    const uint64_t end_block = (end_byte + kBlockBytes - 1) / kBlockBytes;
    out.length_blocks =
        static_cast<uint32_t>(end_block - out.offset_blocks);
    out.latency_us = static_cast<uint32_t>(duration / kTicksPerUs);
    return true;
}

bool
ReferenceMsrCsvReader::next(Request &out)
{
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        if (parseLine(line, out))
            return true;
    }
    return false;
}

void
ReferenceMsrCsvReader::reset()
{
    in.clear();
    in.seekg(0);
    if (!in)
        util::fatal("cannot rewind MSR trace file '%s'", path.c_str());
    skipped_records = 0;
}

ReferenceMergedTrace::ReferenceMergedTrace(
    std::vector<std::unique_ptr<trace::TraceReader>> sources_)
    : sources(std::move(sources_))
{
}

void
ReferenceMergedTrace::prime()
{
    for (size_t i = 0; i < sources.size(); ++i) {
        Request r;
        if (sources[i]->next(r))
            heap.push(HeapEntry{r, i});
    }
    primed = true;
}

bool
ReferenceMergedTrace::next(Request &out)
{
    if (!primed)
        prime();
    if (heap.empty())
        return false;
    const HeapEntry top = heap.top();
    heap.pop();
    out = top.req;
    Request r;
    if (sources[top.source]->next(r))
        heap.push(HeapEntry{r, top.source});
    return true;
}

void
ReferenceMergedTrace::reset()
{
    for (auto &s : sources)
        s->reset();
    heap = {};
    primed = false;
}

} // namespace oracle
} // namespace sievestore
