/**
 * @file
 * Footprint regression tests: the memoryBytes() numbers the paper's
 * cost claims rest on, pinned against the util/footprint.hpp
 * convention so accounting drift is caught immediately.
 *
 * Section 3.3 sizes the two sieve tiers: the IMCT is a fixed array of
 * windowed counters (metastate bounded regardless of the block
 * population) and the MCT tracks only IMCT-qualified blocks. The
 * refactor moved the MCT and the block cache onto the flat index, so
 * these tests also pin the flat slot formula and the before/after
 * comparison against the node-based reference engine.
 */

#include <gtest/gtest.h>

#include "analysis/access_counter.hpp"
#include "cache/block_cache.hpp"
#include "cache/replacement.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"
#include "core/windowed_counter.hpp"
#include "oracle/reference_replacement.hpp"
#include "util/flat_index.hpp"
#include "util/footprint.hpp"
#include "util/sim_time.hpp"

namespace {

using namespace sievestore;
using namespace sievestore::core;
using namespace sievestore::cache;
using sievestore::oracle::makeReferencePolicy;
using sievestore::trace::BlockId;

WindowSpec
paperWindow()
{
    // W = 8 h in k = 4 subwindows, the paper's tuned configuration.
    return WindowSpec::paperDefault();
}

TEST(Footprint, WindowedCounterIs8Bytes)
{
    // k = 4 max subwindows at uint8_t each plus the 4-byte stamp:
    // the per-entry unit every Section 3.3 size is a multiple of.
    EXPECT_EQ(sizeof(WindowedCounter), 8u);
}

TEST(Footprint, ImctIsSlotsTimesCounterSize)
{
    // The IMCT's whole point (Section 3.3): metastate is slots * entry
    // size, independent of how many blocks ever hash into it.
    const Imct imct(1 << 12, paperWindow());
    EXPECT_EQ(imct.memoryBytes(), (1u << 12) * sizeof(WindowedCounter));
    const Imct big(1 << 20, paperWindow());
    EXPECT_EQ(big.memoryBytes(), (1u << 20) * sizeof(WindowedCounter));
}

TEST(Footprint, MctIsAllocatedSlotsTimesSlotBytes)
{
    // Flat-table convention: allocated slots x (key + payload + 1
    // metadata byte). With an 8-byte WindowedCounter payload that is
    // 17 bytes per slot.
    Mct mct(paperWindow());
    EXPECT_EQ(mct.memoryBytes(), 0u) << "empty MCT allocates nothing";
    const util::TimeUs t = util::makeTime(0, 1);
    for (BlockId b = 0; b < 100; ++b)
        mct.admit(b, t);
    // 100 entries need 128 slots at the 7/8 load-factor bound.
    EXPECT_EQ(mct.memoryBytes(),
              util::flatIndexFootprintBytes(128, 8 + 8));
    EXPECT_EQ(mct.memoryBytes(), 128u * 17u);
}

TEST(Footprint, AccessCounterIsPageSlotsTimes41Bytes)
{
    // SieveStore-D's epoch counter: one slot per 4 KB page, an 8-byte
    // key and eight 4-byte block counts, plus the metadata byte.
    analysis::AccessCounter counter;
    EXPECT_EQ(counter.memoryBytes(), 0u) << "empty counter allocates nothing";
    // 100 pages, fully covered: 800 blocks in 100 slots.
    for (BlockId b = 0; b < 800; ++b)
        counter.observe(b);
    EXPECT_EQ(counter.uniqueBlocks(), 800u);
    EXPECT_EQ(counter.memoryBytes(), util::flatIndexFootprintBytes(128, 40));
    EXPECT_EQ(counter.memoryBytes(), 128u * 41u);
    // One isolated block per page costs the same slot: the worst case
    // is 41 bytes per block where a per-block table spends 17.
    analysis::AccessCounter sparse;
    for (BlockId b = 0; b < 100; ++b)
        sparse.observe(b * trace::kBlocksPerPage);
    EXPECT_EQ(sparse.memoryBytes(), counter.memoryBytes());
}

TEST(Footprint, FlatIndexFormulaIsSlotsTimesSlotBytesPlusOne)
{
    EXPECT_EQ(util::flatIndexFootprintBytes(16, 16), 16u * 17u);
    EXPECT_EQ(util::flatIndexFootprintBytes(1 << 20, 32),
              (1ull << 20) * 33u);
    // The templated table agrees with the free function.
    util::FlatIndex<uint64_t> idx(1000);
    EXPECT_EQ(idx.memoryBytes(),
              util::flatIndexFootprintBytes(idx.slotCount(), 16));
}

TEST(Footprint, CacheMemoryCoversResidencyAndReplacementState)
{
    // The doc-drift fix: BlockCache::memoryBytes() must include the
    // replacement policy's bookkeeping in BOTH engines, so the two
    // are comparable. A custom-policy cache must therefore report
    // more than its residency index alone.
    BlockCache custom(256,
                      makeReferencePolicy({EvictionKind::Lru, 1}, 256));
    for (BlockId b = 0; b < 256; ++b)
        custom.insert(b);
    const uint64_t set_only = util::flatIndexFootprintBytes(
        512, sizeof(uint64_t) + 2 * sizeof(uint64_t));
    EXPECT_GT(custom.memoryBytes(), set_only)
        << "reference engine must add its policy's node containers";
}

TEST(Footprint, FlatEngineAtOrBelowReferencePerResidentBlock)
{
    // The acceptance bar: per-resident-block metadata of the flat
    // engine no higher than the node-based seed, for every kind, at
    // full occupancy.
    for (const EvictionKind kind :
         {EvictionKind::Lru, EvictionKind::Fifo, EvictionKind::Clock,
          EvictionKind::Lfu, EvictionKind::Random}) {
        const uint64_t capacity = 1 << 14;
        BlockCache flat(capacity, EvictionSpec{kind, 1});
        BlockCache reference(capacity,
                             makeReferencePolicy({kind, 1}, capacity));
        for (BlockId b = 0; b < capacity; ++b) {
            flat.insert(b);
            reference.insert(b);
        }
        const double flat_per_block =
            static_cast<double>(flat.memoryBytes()) /
            static_cast<double>(capacity);
        const double ref_per_block =
            static_cast<double>(reference.memoryBytes()) /
            static_cast<double>(capacity);
        EXPECT_LE(flat_per_block, ref_per_block)
            << evictionKindName(kind);
        // And concretely: at most 2 slots per block (power-of-two
        // growth) x 25 bytes (8 key + 16 policy payload + 1 dib)
        // plus at most 2 x 16-byte order-arena nodes per block.
        EXPECT_LE(flat_per_block, 82.0) << evictionKindName(kind);
    }
}

} // namespace
