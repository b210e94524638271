/**
 * @file
 * Flat open-addressing block index and index-linked list arena.
 *
 * At paper scale a 16-32 GB cache tracks 31-62 M resident 512-byte
 * blocks, and every access used to pay 2-3 independent node-based hash
 * probes (residency set, replacement-policy map, MCT) plus
 * pointer-chasing through std::list recency nodes. FlatIndex replaces
 * those with one open-addressing, power-of-two, robin-hood table keyed
 * by a 64-bit block id with a POD payload stored inline in the slot:
 * one probe touches one contiguous slot that already holds all
 * per-block bookkeeping. IndexList replaces pointer-linked recency
 * lists with a 32-bit index-linked arena (16 bytes per node, no
 * per-node allocation, stable indices).
 *
 * Layout and policy (documented for DESIGN.md "Flat-memory hot path"):
 *  - slots are {uint64_t key, Payload payload}; a parallel byte array
 *    holds each slot's displacement-from-home + 1 ("dib", 0 = empty);
 *  - capacity is a power of two, probed linearly after a mix64 hash;
 *  - maximum load factor is 7/8, growth doubles and rehashes;
 *  - deletion is robin-hood backward shift: there are NO tombstones,
 *    so load factor never decays and probes never lengthen after
 *    heavy churn (the MCT prunes thousands of entries per subwindow).
 *
 * References returned by find()/findOrInsert() — and every out-pointer
 * written by findBatch() — are invalidated by any subsequent
 * insert/erase/reserve (slots move under robin-hood displacement);
 * re-probe by key instead of caching them. findBatch() callers gather
 * a batch of payload pointers and must finish consuming them before
 * the next structural mutation.
 */

#ifndef SIEVESTORE_UTIL_FLAT_INDEX_HPP
#define SIEVESTORE_UTIL_FLAT_INDEX_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/hashing.hpp"
#include "util/prefetch.hpp"

// The AVX2 dib-scan path is compiled whenever the toolchain can emit
// it (function-level target attribute, no global -mavx2) and selected
// at runtime; the scalar probe loop is always built and always the
// fallback.
#if defined(__x86_64__) && defined(__GNUC__)
#define SIEVE_FLAT_INDEX_SIMD 1
#include <immintrin.h>
#else
#define SIEVE_FLAT_INDEX_SIMD 0
#endif

namespace sievestore {
namespace util {

/** True when the host CPU can run the AVX2 dib-scan probe loop. */
bool batchSimdSupported();

/** Current runtime dispatch decision for findBatch's probe loop. */
bool batchSimdEnabled();

/**
 * Force the findBatch probe-loop dispatch (clamped to
 * batchSimdSupported()). Seeded from the SIEVE_BATCH_SIMD environment
 * variable at startup ("0" forces scalar); the differential suites
 * flip it to prove SIMD/scalar bit-identity. Not thread-safe: set it
 * before spawning replay workers.
 * @return the value actually in effect
 */
bool setBatchSimd(bool enabled);

/**
 * Open-addressing robin-hood hash table: 64-bit key, inline POD
 * payload, power-of-two capacity, backward-shift deletion.
 */
template <typename Payload>
class FlatIndex
{
    static_assert(std::is_trivially_copyable_v<Payload>,
                  "FlatIndex payloads are moved by memcpy during "
                  "robin-hood displacement; they must be POD");
    static_assert(std::is_default_constructible_v<Payload>,
                  "FlatIndex value-initializes the payload on insert");

  public:
    /** findBatch chunk width: per-chunk scratch (home-slot positions)
     *  stays a fixed-size stack array, never a heap allocation. */
    static constexpr size_t kBatchChunk = 64;

    /** Hash-ahead distance: how many probes the prefetch window runs
     *  ahead of the resolving cursor in findBatch. Eight ~100 ns DRAM
     *  fetches in flight covers the ~10-20 ns a resolved probe takes,
     *  without thrashing L1's line-fill buffers. */
    static constexpr size_t kPrefetchAhead = 8;

    FlatIndex() = default;

    /** Pre-size for `expected_entries` entries (no rehash below it). */
    explicit FlatIndex(size_t expected_entries)
    {
        reserve(expected_entries);
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

    /** Allocated slot count (power of two; 0 before first use). */
    size_t slotCount() const { return slots_.size(); }

    /**
     * True when `extra` more entries fit without growing the table
     * (the exact complement of findOrInsert's rehash trigger). Lets
     * callers engage SIEVE_ASSERT_NO_ALLOC regions precisely: a
     * pre-reserved table keeps this true for its whole working set.
     */
    bool
    hasCapacityFor(size_t extra) const
    {
        return (count_ + extra) * 8 <= slots_.size() * 7;
    }

    /** Entries per slot, in [0, 7/8]. */
    double
    loadFactor() const
    {
        return slots_.empty() ? 0.0
                              : static_cast<double>(count_) /
                                    static_cast<double>(slots_.size());
    }

    /**
     * Grow so that `entries` entries fit without any further rehash
     * (never shrinks). BlockCache calls this with its block capacity
     * at construction, eliminating rehash storms mid-replay.
     */
    void
    reserve(size_t entries)
    {
        const size_t target = slotTarget(entries);
        if (target > slots_.size())
            rehash(target);
    }

    /** Drop every entry but keep the slot array (no deallocation). */
    void
    clear()
    {
        std::fill(dib_.begin(), dib_.end(), uint8_t{0});
        count_ = 0;
    }

    /** Payload of `key`, or nullptr. Invalidated by any mutation.
     *  SIEVE_NOALLOC: a find is a pure probe — the analyzer verifies
     *  nothing reachable from it can touch the heap. */
    SIEVE_NOALLOC Payload *
    find(uint64_t key)
    {
        const size_t pos = findSlot(key);
        return pos == kNoSlot ? nullptr : &slots_[pos].payload;
    }

    SIEVE_NOALLOC const Payload *
    find(uint64_t key) const
    {
        const size_t pos = findSlot(key);
        return pos == kNoSlot ? nullptr : &slots_[pos].payload;
    }

    bool contains(uint64_t key) const { return findSlot(key) != kNoSlot; }

    /**
     * Batched lookup kernel: resolve `keys` into payload pointers
     * (nullptr for absent keys), written to `out[i]` for `keys[i]`.
     *
     * The batch is processed in chunks of kBatchChunk keys. Within a
     * chunk, pass 1 hashes every key up front (no dependent loads) and
     * issues software prefetches for the first kPrefetchAhead home
     * slots; pass 2 resolves the probes in order, keeping the prefetch
     * window kPrefetchAhead probes ahead of the resolving cursor so
     * each probe's first touch is (usually) an L1 hit instead of a
     * DRAM round trip. The probe loop itself is runtime-dispatched
     * between an AVX2 dib scan (8 displacement bytes per step, see
     * probeSimd) and the scalar loop shared with find().
     *
     * Out-pointers follow the find() invalidation rule above. Probes
     * resolve in batch order, so duplicate keys yield identical
     * pointers. Purely a read: safe inside no-alloc regions
     * (SIEVE_NOALLOC root, proven by sieve_analyze.py).
     *
     * @return number of keys found
     */
    SIEVE_NOALLOC size_t
    findBatch(std::span<const uint64_t> keys, std::span<Payload *> out)
    {
        return findBatchImpl(*this, keys, out);
    }

    SIEVE_NOALLOC size_t
    findBatch(std::span<const uint64_t> keys,
              std::span<const Payload *> out) const
    {
        return findBatchImpl(*this, keys, out);
    }

    /** Start pulling `key`'s home slot toward L1 (pure hint). */
    void
    prefetch(uint64_t key) const
    {
        if (!slots_.empty())
            prefetchSlot(mix64(key) & (slots_.size() - 1));
    }

    /**
     * Find `key`, inserting a value-initialized payload if absent.
     * @return payload pointer and whether an insert happened
     */
    std::pair<Payload *, bool>
    findOrInsert(uint64_t key)
    {
        if (slots_.empty() || (count_ + 1) * 8 > slots_.size() * 7)
            rehash(slotTarget(count_ + 1));
        while (true) {
            const size_t mask = slots_.size() - 1;
            size_t pos = mix64(key) & mask;
            unsigned d = 1;
            // Search until the insertion point. No state is touched
            // yet, so hitting the displacement cap can safely grow
            // and retry the whole operation.
            while (true) {
                const unsigned slot_d = dib_[pos];
                if (slot_d == 0) {
                    slots_[pos] = Slot{key, Payload{}};
                    dib_[pos] = static_cast<uint8_t>(d);
                    ++count_;
                    return {&slots_[pos].payload, true};
                }
                if (slot_d == d && slots_[pos].key == key)
                    return {&slots_[pos].payload, false};
                if (slot_d < d)
                    break; // robin hood: key is absent, displace here
                pos = (pos + 1) & mask;
                ++d;
                if (d > kMaxDib)
                    break;
            }
            if (d > kMaxDib) {
                rehash(slots_.size() * 2);
                continue;
            }
            // Place the new entry at the insertion point and push the
            // displaced chain forward. The new entry, once written, is
            // never moved again within this operation.
            Slot carry = slots_[pos];
            auto carry_d = static_cast<unsigned>(dib_[pos]);
            slots_[pos] = Slot{key, Payload{}};
            dib_[pos] = static_cast<uint8_t>(d);
            Payload *result = &slots_[pos].payload;
            ++count_;
            while (true) {
                pos = (pos + 1) & mask;
                ++carry_d;
                // A 250-long displaced run at load factor <= 7/8 under
                // mix64 is unreachable without adversarial keys.
                SIEVE_CHECK(carry_d <= kMaxDib,
                            "FlatIndex displacement overflow");
                if (dib_[pos] == 0) {
                    slots_[pos] = carry;
                    dib_[pos] = static_cast<uint8_t>(carry_d);
                    return {result, true};
                }
                if (dib_[pos] < carry_d) {
                    std::swap(slots_[pos], carry);
                    const auto held = static_cast<unsigned>(dib_[pos]);
                    dib_[pos] = static_cast<uint8_t>(carry_d);
                    carry_d = held;
                }
            }
        }
    }

    /** Remove `key`. @retval true if it was present. */
    bool
    erase(uint64_t key)
    {
        return eraseWith(key, [](const Payload &) {});
    }

    /**
     * Remove `key`, invoking `fn(payload)` on the doomed entry first —
     * a single-probe erase for callers that need the payload's final
     * state (e.g. to unlink its IndexList node).
     */
    template <typename Fn>
    bool
    eraseWith(uint64_t key, Fn &&fn)
    {
        const size_t pos = findSlot(key);
        if (pos == kNoSlot)
            return false;
        fn(const_cast<const Payload &>(slots_[pos].payload));
        eraseAt(pos);
        return true;
    }

    /** Visit every entry as fn(key, payload&). No structural mutation
     * from inside the callback. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (dib_[i] != 0)
                fn(slots_[i].key, slots_[i].payload);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < slots_.size(); ++i)
            if (dib_[i] != 0)
                fn(slots_[i].key, slots_[i].payload);
    }

    /**
     * Erase every entry matching pred(key, payload). The predicate
     * must be pure: backward-shift deletion can re-present an entry
     * from a wrapped probe chain to the scan (never skip one).
     * @return entries removed
     */
    template <typename Pred>
    size_t
    eraseIf(Pred &&pred)
    {
        size_t removed = 0;
        for (size_t i = 0; i < slots_.size();) {
            if (dib_[i] != 0 &&
                pred(slots_[i].key,
                     const_cast<const Payload &>(slots_[i].payload))) {
                eraseAt(i);
                ++removed; // re-examine slot i: the shift refills it
            } else {
                ++i;
            }
        }
        return removed;
    }

    /** Footprint per the util/footprint.hpp convention. */
    uint64_t
    memoryBytes() const
    {
        return flatIndexFootprintBytes(slots_.size(), sizeof(Slot));
    }

    /**
     * Audit structural invariants: every occupied slot's dib equals
     * its distance-from-home + 1, the entry count matches, and the
     * load factor respects the 7/8 bound. Aborts on violation.
     */
    void
    checkInvariants() const
    {
        size_t occupied = 0;
        const size_t mask = slots_.empty() ? 0 : slots_.size() - 1;
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (dib_[i] == 0)
                continue;
            ++occupied;
            const size_t home = mix64(slots_[i].key) & mask;
            const size_t dist = (i - home) & mask;
            SIEVE_CHECK(dist + 1 == dib_[i],
                        "slot %zu: dib %u but distance-from-home %zu",
                        i, dib_[i], dist);
        }
        SIEVE_CHECK(occupied == count_,
                    "FlatIndex counts %zu entries, slots hold %zu",
                    count_, occupied);
        SIEVE_CHECK(count_ * 8 <= slots_.size() * 7 || slots_.empty(),
                    "load factor above 7/8");
    }

  private:
    struct Slot
    {
        uint64_t key;
        Payload payload;
    };

    static constexpr size_t kMinSlots = 16;
    static constexpr unsigned kMaxDib = 250;
    static constexpr size_t kNoSlot = SIZE_MAX;

    /** Smallest power-of-two slot count keeping `entries` <= 7/8 full. */
    static size_t
    slotTarget(size_t entries)
    {
        const size_t need = entries + entries / 7 + 1;
        size_t slots = kMinSlots;
        while (slots < need)
            slots *= 2;
        return slots;
    }

    size_t
    findSlot(uint64_t key) const
    {
        if (slots_.empty())
            return kNoSlot;
        return probeScalar(key, mix64(key) & (slots_.size() - 1), 1);
    }

    /**
     * Scalar probe loop starting at `pos` with displacement `d`
     * (1 = home). Also the tail resolver for probeSimd, which hands
     * over mid-chain when a full vector no longer fits before the
     * table's end or the displacement cap.
     */
    size_t
    probeScalar(uint64_t key, size_t pos, unsigned d) const
    {
        const size_t mask = slots_.size() - 1;
        pos &= mask; // probeSimd may hand over pos == slotCount()
        while (true) {
            const unsigned slot_d = dib_[pos];
            // An empty slot ends the chain; a slot poorer than us
            // would have been displaced had our key been inserted.
            if (slot_d == 0 || slot_d < d)
                return kNoSlot;
            if (slot_d == d && slots_[pos].key == key)
                return pos;
            pos = (pos + 1) & mask;
            ++d;
        }
    }

#if SIEVE_FLAT_INDEX_SIMD
    /**
     * AVX2 probe loop: scan 8 dib bytes per step. Lane j of `expect`
     * holds the displacement our key would have at slot pos + j; a
     * lane with dib < expect (empty slot or poorer entry) terminates
     * the chain, a lane with dib == expect is a same-home candidate
     * whose key is compared. Comparisons are unsigned via
     * min_epu8 == dib (kMaxDib = 250 overflows signed bytes), and the
     * `d + 8 <= kMaxDib` guard keeps every expect lane <= 249, so no
     * lane wraps. Wrapped chains and cap-adjacent tails hand over to
     * probeScalar, whose masked walk is the behavioral reference.
     */
    __attribute__((target("avx2"))) size_t
    probeSimd(uint64_t key, size_t pos) const
    {
        const size_t nslots = slots_.size();
        const __m128i ramp =
            _mm_set_epi8(0, 0, 0, 0, 0, 0, 0, 0, 7, 6, 5, 4, 3, 2, 1, 0);
        unsigned d = 1;
        while (pos + 8 <= nslots && d + 8 <= kMaxDib) {
            const __m128i dib = _mm_loadl_epi64(
                reinterpret_cast<const __m128i *>(dib_.data() + pos));
            const __m128i expect = _mm_add_epi8(
                _mm_set1_epi8(static_cast<char>(d)), ramp);
            const auto le =
                static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
                    _mm_min_epu8(dib, expect), dib))) &
                0xFFu;
            const auto eq = static_cast<unsigned>(_mm_movemask_epi8(
                                _mm_cmpeq_epi8(dib, expect))) &
                            0xFFu;
            const unsigned lt = le & ~eq;
            const unsigned stop =
                lt != 0 ? static_cast<unsigned>(__builtin_ctz(lt)) : 8u;
            // Every eq lane before the chain's end is a slot from our
            // home bucket; compare keys in order.
            for (unsigned m = eq; m != 0; m &= m - 1) {
                const auto j =
                    static_cast<unsigned>(__builtin_ctz(m));
                if (j >= stop)
                    break;
                if (slots_[pos + j].key == key)
                    return pos + j;
            }
            if (stop < 8)
                return kNoSlot;
            pos += 8;
            d += 8;
        }
        return probeScalar(key, pos, d);
    }
#endif

    /** Prefetch a slot's dib byte and key/payload lines. */
    void
    prefetchSlot(size_t pos) const
    {
        prefetchRead(dib_.data() + pos);
        prefetchRead(slots_.data() + pos);
    }

    /** Shared body of the const/non-const findBatch overloads. */
    template <typename Self, typename Ptr>
    static size_t
    findBatchImpl(Self &self, std::span<const uint64_t> keys,
                  std::span<Ptr> out)
    {
        SIEVE_DCHECK(out.size() >= keys.size());
        if (self.slots_.empty()) {
            for (size_t i = 0; i < keys.size(); ++i)
                out[i] = nullptr;
            return 0;
        }
        const size_t mask = self.slots_.size() - 1;
#if SIEVE_FLAT_INDEX_SIMD
        const bool simd = batchSimdEnabled();
#endif
        size_t found = 0;
        size_t home[kBatchChunk];
        for (size_t base = 0; base < keys.size();
             base += kBatchChunk) {
            const size_t n =
                std::min(kBatchChunk, keys.size() - base);
            // Pass 1: hash ahead. Home slots come from arithmetic
            // only, so nothing here waits on memory; the first
            // kPrefetchAhead lines start toward L1 immediately.
            for (size_t i = 0; i < n; ++i) {
                home[i] = mix64(keys[base + i]) & mask;
                if (i < kPrefetchAhead)
                    self.prefetchSlot(home[i]);
            }
            // Pass 2: resolve in order, topping the prefetch window
            // up to kPrefetchAhead probes ahead of the cursor.
            for (size_t i = 0; i < n; ++i) {
                if (i + kPrefetchAhead < n)
                    self.prefetchSlot(home[i + kPrefetchAhead]);
                const uint64_t key = keys[base + i];
#if SIEVE_FLAT_INDEX_SIMD
                const size_t pos =
                    simd ? self.probeSimd(key, home[i])
                         : self.probeScalar(key, home[i], 1);
#else
                const size_t pos =
                    self.probeScalar(key, home[i], 1);
#endif
                if (pos == kNoSlot) {
                    out[base + i] = nullptr;
                } else {
                    out[base + i] = &self.slots_[pos].payload;
                    ++found;
                }
            }
        }
        return found;
    }

    /** Backward-shift deletion starting at an occupied slot. */
    void
    eraseAt(size_t pos)
    {
        const size_t mask = slots_.size() - 1;
        while (true) {
            const size_t nxt = (pos + 1) & mask;
            const unsigned nxt_d = dib_[nxt];
            if (nxt_d <= 1)
                break; // chain ends: next slot is empty or at home
            slots_[pos] = slots_[nxt];
            dib_[pos] = static_cast<uint8_t>(nxt_d - 1);
            pos = nxt;
        }
        dib_[pos] = 0;
        --count_;
    }

    // SIEVE_MAY_ALLOC: amortized table growth. Guarded hot paths
    // either pre-reserve (BlockCache's capacity) or condition their
    // region on hasCapacityFor(), so an armed guard never reaches a
    // growing findOrInsert.
    void SIEVE_MAY_ALLOC
    rehash(size_t new_slots)
    {
        std::vector<Slot> old_slots;
        std::vector<uint8_t> old_dib;
        old_slots.swap(slots_);
        old_dib.swap(dib_);
        slots_.resize(new_slots);
        dib_.assign(new_slots, 0);
        count_ = 0;
        for (size_t i = 0; i < old_slots.size(); ++i)
            if (old_dib[i] != 0)
                findOrInsert(old_slots[i].key)
                    .first[0] = old_slots[i].payload;
    }

    std::vector<Slot> slots_;
    // sieve-lint: charged(flatIndexFootprintBytes adds one metadata
    // byte per slot for this array)
    std::vector<uint8_t> dib_;
    size_t count_ = 0;
};

/**
 * Doubly-linked list in a contiguous arena, linked by 32-bit node
 * indices instead of pointers: 16 bytes per node, one allocation for
 * the whole list, indices stable across growth (vector reallocation
 * copies nodes; indices, unlike pointers, survive). Erased nodes go
 * on a freelist and are reused. Backs the LRU/FIFO recency order and
 * the CLOCK ring of the flat block cache.
 */
class IndexList
{
  public:
    /** Null node index (no node / end of list). */
    static constexpr uint32_t kNull = UINT32_MAX;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    uint32_t head() const { return head_; }
    uint32_t tail() const { return tail_; }
    uint32_t next(uint32_t node) const { return nodes_[node].next; }
    uint32_t prev(uint32_t node) const { return nodes_[node].prev; }
    uint64_t value(uint32_t node) const { return nodes_[node].value; }

    void reserve(size_t nodes) { nodes_.reserve(nodes); }

    void
    clear()
    {
        nodes_.clear();
        head_ = tail_ = free_ = kNull;
        size_ = 0;
    }

    /** Prepend a value. @return its node index (stable until erase). */
    uint32_t
    pushFront(uint64_t value)
    {
        return insertBefore(head_, value);
    }

    /**
     * Insert before `pos` (kNull appends at the tail, matching
     * std::list::insert(end(), v)). @return the new node's index.
     */
    uint32_t
    insertBefore(uint32_t pos, uint64_t value)
    {
        const uint32_t node = allocNode(value);
        Node &n = nodes_[node];
        if (pos == kNull) {
            n.prev = tail_;
            n.next = kNull;
            if (tail_ != kNull)
                nodes_[tail_].next = node;
            tail_ = node;
            if (head_ == kNull)
                head_ = node;
        } else {
            Node &at = nodes_[pos];
            n.prev = at.prev;
            n.next = pos;
            if (at.prev != kNull)
                nodes_[at.prev].next = node;
            else
                head_ = node;
            at.prev = node;
        }
        ++size_;
        return node;
    }

    /** Unlink a node and splice it to the front (LRU promotion). */
    void
    moveToFront(uint32_t node)
    {
        if (head_ == node)
            return;
        unlink(node);
        Node &n = nodes_[node];
        n.prev = kNull;
        n.next = head_;
        if (head_ != kNull)
            nodes_[head_].prev = node;
        head_ = node;
        if (tail_ == kNull)
            tail_ = node;
    }

    /** Unlink a node and recycle it (its index may be reused). */
    void
    erase(uint32_t node)
    {
        unlink(node);
        nodes_[node].next = free_;
        free_ = node;
        SIEVE_DCHECK(size_ > 0);
        --size_;
    }

    /** Arena footprint per the util/footprint.hpp convention. */
    uint64_t
    memoryBytes() const
    {
        return static_cast<uint64_t>(nodes_.capacity()) * sizeof(Node);
    }

    /**
     * Audit the chain: forward and backward walks agree with size(),
     * terminate at head/tail, and the freelist accounts for exactly
     * the remaining arena nodes. Aborts on violation.
     */
    void
    checkInvariants() const
    {
        size_t forward = 0;
        uint32_t last = kNull;
        for (uint32_t n = head_; n != kNull; n = nodes_[n].next) {
            SIEVE_CHECK(n < nodes_.size(), "list node %u out of arena",
                        n);
            SIEVE_CHECK(nodes_[n].prev == last,
                        "node %u prev link mismatch", n);
            last = n;
            SIEVE_CHECK(++forward <= size_,
                        "forward walk exceeds size %zu (cycle?)",
                        size_);
        }
        SIEVE_CHECK(last == tail_, "tail does not end the chain");
        SIEVE_CHECK(forward == size_,
                    "forward walk saw %zu nodes, size is %zu", forward,
                    size_);
        size_t free_nodes = 0;
        for (uint32_t n = free_; n != kNull; n = nodes_[n].next) {
            SIEVE_CHECK(n < nodes_.size());
            SIEVE_CHECK(++free_nodes <= nodes_.size() - size_,
                        "freelist longer than the erased population");
        }
        SIEVE_CHECK(free_nodes == nodes_.size() - size_,
                    "freelist holds %zu nodes, expected %zu",
                    free_nodes, nodes_.size() - size_);
    }

  private:
    struct Node
    {
        uint64_t value;
        uint32_t prev;
        uint32_t next;
    };

    // SIEVE_MAY_ALLOC: pops the free list in steady state; the arena
    // push_back only runs while the structure is still growing, and
    // BlockCache covers warmup growth with an explicit disarm.
    SIEVE_MAY_ALLOC uint32_t
    allocNode(uint64_t value)
    {
        uint32_t node;
        if (free_ != kNull) {
            node = free_;
            free_ = nodes_[node].next;
        } else {
            SIEVE_CHECK(nodes_.size() < kNull,
                        "IndexList arena exceeds 2^32 - 1 nodes");
            node = static_cast<uint32_t>(nodes_.size());
            nodes_.push_back(Node{});
        }
        nodes_[node].value = value;
        return node;
    }

    void
    unlink(uint32_t node)
    {
        Node &n = nodes_[node];
        if (n.prev != kNull)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != kNull)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
    }

    std::vector<Node> nodes_;
    uint32_t head_ = kNull;
    uint32_t tail_ = kNull;
    uint32_t free_ = kNull;
    size_t size_ = 0;
};

} // namespace util
} // namespace sievestore

#endif // SIEVESTORE_UTIL_FLAT_INDEX_HPP
