/**
 * @file
 * The block-device request record.
 *
 * A request is what the traces record: a multi-block read or write issued
 * by one server to one volume, with an issue timestamp and a measured
 * latency. Cache simulation operates on the blocks of each request,
 * each with its interpolated completion time.
 */

#ifndef SIEVESTORE_TRACE_REQUEST_HPP
#define SIEVESTORE_TRACE_REQUEST_HPP

#include <cstdint>

#include "trace/block.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace trace {

/** Request direction. */
enum class Op : uint8_t { Read = 0, Write = 1 };

/**
 * Longest request a trace decoder yields, in blocks (1 TiB). Consumers
 * walk a request with a 32-bit block index in steps of up to a probe
 * chunk; a length within one chunk of 2^32 wraps that index and never
 * ends, so decoders reject anything longer than this.
 */
inline constexpr uint32_t kMaxRequestBlocks = uint32_t(1) << 31;

/**
 * One multi-block I/O request as recorded below the buffer cache.
 */
struct Request
{
    /** Issue time, microseconds since trace origin (calendar midnight). */
    util::TimeUs time = 0;
    /** First 512-byte block touched (within `volume`). */
    uint64_t offset_blocks = 0;
    /** Number of 512-byte blocks touched (>= 1). */
    uint32_t length_blocks = 0;
    /** Measured request latency; completion = time + latency. */
    uint32_t latency_us = 0;
    /** Global volume index. */
    VolumeId volume = 0;
    /** Server that issued the request. */
    ServerId server = 0;
    /** Read or write. */
    Op op = Op::Read;

    /** Completion time of the whole request. */
    util::TimeUs completion() const { return time + latency_us; }

    /** BlockId of the i-th block covered by this request. */
    BlockId
    blockAt(uint32_t i) const
    {
        return makeBlockId(volume, offset_blocks + i);
    }

    /** Total bytes transferred. */
    uint64_t bytes() const { return uint64_t(length_blocks) * kBlockBytes; }
};

/**
 * Interpolated completion time of block i (0-based) of a request
 * covering n blocks: issue + (i+1)/n of the latency, so the last block
 * completes exactly at the request's completion time.
 */
inline util::TimeUs
interpolatedCompletion(const Request &req, uint32_t i)
{
    const uint32_t n = req.length_blocks;
    if (i >= n)
        util::panic("interpolatedCompletion: block index %u of %u", i, n);
    // (i + 1) / n of the latency, in integer arithmetic; monotone in i
    // and equal to the full latency for the last block.
    const uint64_t frac =
        (static_cast<uint64_t>(req.latency_us) * (i + 1)) / n;
    return req.time + frac;
}

/** Strict-weak ordering by issue time (ties broken deterministically). */
inline bool
requestTimeLess(const Request &a, const Request &b)
{
    if (a.time != b.time)
        return a.time < b.time;
    if (a.volume != b.volume)
        return a.volume < b.volume;
    if (a.offset_blocks != b.offset_blocks)
        return a.offset_blocks < b.offset_blocks;
    return a.op < b.op;
}

/**
 * One 512-byte block access, the unit the cache simulator consumes.
 * Produced by expanding a Request; carries the linearly-interpolated
 * completion time of its parent request (Section 4: "We used linear
 * interpolation to infer completion times for individual blocks in cases
 * of large, multi-block requests").
 */
struct BlockAccess
{
    /** Issue time inherited from the parent request. */
    util::TimeUs time = 0;
    /** Interpolated completion time of this block. */
    util::TimeUs completion = 0;
    /** Identity of the block. */
    BlockId block = 0;
    /** Server that issued the parent request. */
    ServerId server = 0;
    /** Read or write. */
    Op op = Op::Read;
};

} // namespace trace
} // namespace sievestore

#endif // SIEVESTORE_TRACE_REQUEST_HPP
