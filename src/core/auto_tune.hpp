/**
 * @file
 * Self-tuning sieve (the paper's Section 7 "tuning" direction).
 *
 * SieveStore-C's thresholds (t1, t2) were hand-tuned against one
 * ensemble's traces. A deployment-quality appliance should hold its
 * allocation rate to a churn budget on its own: if daily
 * allocation-writes exceed the budget (as a fraction of cache
 * capacity), the sieve is too loose — raise t2; if allocations run far
 * below budget while misses abound, it is too tight — lower t2. The
 * controller adjusts one step per day within configured bounds, which
 * keeps the feedback loop stable against the day-scale workload drift
 * of observation O2.
 */

#ifndef SIEVESTORE_CORE_AUTO_TUNE_HPP
#define SIEVESTORE_CORE_AUTO_TUNE_HPP

#include <array>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "core/sievestore_c.hpp"
#include "trace/block.hpp"
#include "util/check.hpp"
#include "util/flat_index.hpp"

namespace sievestore {
namespace core {

/** Controller parameters for the self-tuning sieve. */
struct AutoTuneConfig
{
    /** Daily allocation budget as a fraction of cache capacity
     * (1.0 = at most one full cache turnover per day). */
    double churn_budget = 1.0;
    /** Cache capacity in blocks (the budget's denominator). */
    uint64_t cache_blocks = (16ULL << 30) / trace::kBlockBytes;
    /** Hysteresis: only tighten above budget * (1 + slack), only
     * loosen below budget * (1 - slack). */
    double slack = 0.25;
    /** Bounds for the adjusted MCT threshold t2; max_t2 may not
     * exceed kMaxMissThreshold. */
    uint32_t min_t2 = 1;
    uint32_t max_t2 = 16;
};

/**
 * SieveStore-C with a per-day feedback controller on t2.
 *
 * Implemented as an allocation policy wrapping the standard two-tier
 * sieve; day boundaries are detected from access timestamps so no
 * driver support is needed.
 */
class AutoTunedSievePolicy : public AllocationPolicy
{
  public:
    AutoTunedSievePolicy(SieveStoreCConfig sieve, AutoTuneConfig tune);

    AllocDecision onMiss(const trace::BlockAccess &access) override;
    void onHit(const trace::BlockAccess &access) override;
    const char *name() const override { return "SieveStore-C/auto"; }
    uint64_t metastateBytes() const override;

    /** Audit the controller bounds and the wrapped sieve. */
    void
    checkInvariants() const override
    {
        SIEVE_CHECK(t2 >= tune.min_t2 && t2 <= tune.max_t2,
                    "auto-tuned t2=%u escaped [%u, %u]", t2,
                    tune.min_t2, tune.max_t2);
        sieve->checkInvariants();
    }

    /** Current MCT threshold. */
    uint32_t currentT2() const { return t2; }
    /** t2 value in force on each day seen so far. */
    const std::vector<uint32_t> &t2History() const { return history; }
    /** Allocations granted on the current day so far. */
    uint64_t allocationsToday() const { return allocs_today; }

  private:
    void rollDay(uint64_t day);

    SieveStoreCConfig sieve_cfg;
    AutoTuneConfig tune;
    std::unique_ptr<SieveStoreCPolicy> sieve;
    uint32_t t2;
    uint64_t current_day = 0;
    bool day_known = false;
    uint64_t allocs_today = 0;
    std::vector<uint32_t> history;
};

/**
 * Parameters of the online adaptive sieve (AdaptiveSievePolicy).
 * Shadow structures are deliberately small relative to the production
 * sieve: they estimate a *ranking* between neighboring threshold
 * settings, not exact hit counts.
 */
struct AdaptiveSieveConfig
{
    /** Starting setting of the production sieve; also the center of
     * the first shadow neighborhood. Shadows inherit its window and
     * seed; it must be the two-tier sieve with subwindow pruning
     * (imct_only, mct_only and prune_on_subwindow = false are
     * rejected). */
    SieveStoreCConfig base;
    /** Per-candidate simulated residency budget in blocks (the
     * capacity of each candidate's shadow ghost). */
    uint64_t ghost_budget = 1 << 15;
    /** Shadow IMCT slot count; each slot holds one counter per
     * candidate. */
    size_t imct_slots = 1 << 14;
    /** Neighborhood radius: candidate settings are the current
     * (t1, t2) plus (t1 +- t1_step, t2) and (t1, t2 +- t2_step),
     * clamped to the bounds below (each maximum at most
     * kMaxMissThreshold). */
    uint32_t t1_step = 2;
    uint32_t t2_step = 1;
    uint32_t min_t1 = 1;
    uint32_t max_t1 = 64;
    uint32_t min_t2 = 1;
    uint32_t max_t2 = 16;
};

/**
 * Online adaptive sieve: SieveStore-C whose (t1, t2) thresholds chase
 * the setting that would capture the most accesses.
 *
 * Five candidate settings — the current one plus its four
 * one-step neighbors — each run a small shadow sieve over the full
 * access stream. When a candidate's shadow admits a block, the block
 * enters the candidate's ghost (a fixed-budget LRU residency set
 * standing in for the cache it would have filled); every access
 * landing in a candidate's ghost counts as an access that setting
 * would have captured. At each day close (Appliance::finishDay ->
 * onDayClose) the candidate with the most captured accesses wins:
 * the production sieve switches to its thresholds (keeping its
 * accumulated IMCT/MCT state), the neighborhood re-centers, and the
 * per-epoch counters reset. Ties favor the incumbent, so a flat
 * neighborhood never flaps.
 *
 * The five shadows live in one shadow bank rather than five
 * (SieveStoreCPolicy, GhostCache) pairs: a single FlatIndex maps a
 * 4 KB page to a row holding every candidate's state for each of its
 * eight blocks (ghost bit and recency node, MCT bit and windowed
 * counter), rows sit in a chunked arena that never moves them, and
 * one fused shadow IMCT keeps five counters per slot. An access costs
 * at most one index probe instead of five ghost probes plus up to
 * five MCT probes, and a run of accesses to one page shares a single
 * probe through a one-entry memo. MCT entries expire lazily — a
 * candidate treats an entry stale as of its last prune subwindow as
 * absent — and one row sweep per subwindow reclaims them, which
 * reproduces each candidate's eager Mct::prune exactly (DESIGN.md
 * section 15 has the argument). Each candidate's per-epoch capture
 * count is therefore the one five independent shadows would produce.
 *
 * Decisions still come only from the production sieve; shadows and
 * ghosts observe the same model-side stream and steer nothing within
 * a day, so replay stays deterministic and shard-mergeable.
 */
class AdaptiveSievePolicy : public AllocationPolicy
{
  public:
    /** Candidate settings: the incumbent (index 0) plus four
     * one-step neighbors. */
    static constexpr size_t kCandidates = 5;

    explicit AdaptiveSievePolicy(AdaptiveSieveConfig config = {});

    AllocDecision onMiss(const trace::BlockAccess &access) override;
    void onHit(const trace::BlockAccess &access) override;
    /** Forwarded table prefetch (see SieveStoreCPolicy::prefetchMiss);
     * shadows are not prefetched — they are off the latency path. */
    void prefetchMiss(trace::BlockId block) const;
    const char *name() const override { return "SieveStore-C/adaptive"; }
    uint64_t metastateBytes() const override;
    void onDayClose(int day) override;
    std::optional<SieveTuning> tuning() const override;
    /**
     * Audit the controller and the shadow bank: thresholds in bounds;
     * rows (keyed by page start, live exactly while a lane holds a
     * bit), index entries, the page memo and ghost lists agree; each
     * ghost within budget; per candidate, MCT bits plus allocations
     * never exceed IMCT qualifications; every windowed counter
     * consistent. O(rows + IMCT slots); aborts on violation.
     */
    void checkInvariants() const override;

    /** Production-sieve thresholds currently in force. */
    uint32_t currentT1() const { return t1_; }
    uint32_t currentT2() const { return t2_; }
    /** Threshold switches performed so far. */
    uint64_t switches() const { return switches_; }
    /** (t1, t2) adopted at each day close so far. */
    const std::vector<std::pair<uint32_t, uint32_t>> &
    history() const
    {
        return history_;
    }
    /** Number of candidate settings (the incumbent is index 0). */
    size_t candidateCount() const { return kCandidates; }
    /** Accesses candidate `i`'s ghost captured this epoch. */
    uint64_t candidateCaptured(size_t i) const;
    /** Candidate `i`'s thresholds. */
    std::pair<uint32_t, uint32_t> candidateSetting(size_t i) const;
    /** The wrapped production sieve. */
    const SieveStoreCPolicy &production() const { return main_; }

    /** Shadow-bank footprint by part (util/footprint.hpp
     * convention); metastateBytes() is the production sieve's plus
     * their sum. */
    struct BankBytes
    {
        /** Page -> row FlatIndex. */
        uint64_t index = 0;
        /** Row chunks and the chunk table; the free list threads
         * through free rows, so it costs nothing beyond them. */
        uint64_t chunks = 0;
        /** Fused shadow IMCT. */
        uint64_t imct = 0;
        /** The candidates' ghost recency lists. */
        uint64_t ghosts = 0;

        uint64_t total() const { return index + chunks + imct + ghosts; }
    };
    BankBytes bankBytes() const;
    /** Blocks some candidate tracks (O(rows): audits and benches). */
    size_t shadowRows() const;
    /** Pages with a live row (some block some candidate tracks). */
    size_t shadowPages() const { return rows_by_page_.size(); }
    /** Block lanes per row: one per block of a 4 KB page. */
    static constexpr size_t kLanes = trace::kBlocksPerPage;
    /** Rows per arena chunk. */
    static constexpr size_t kChunkRows = size_t{1} << 9;

  private:
    /** Candidate i's shadow state for one block. */
    struct Lane
    {
        /** Candidate i's ghost recency node (valid under ghost bit i). */
        uint32_t node[kCandidates] = {};
        /** Candidate i's MCT counter (valid under MCT bit i). */
        WindowedCounter count[kCandidates];
    };

    /** Every candidate's shadow state for the eight blocks of one
     * page. A row is live while some lane holds a bit and free (on
     * the free list) once none does; lanes without bits hold stale
     * values nothing reads. */
    struct Row
    {
        /** The page (trace::pageStart) while the row is live; the
         * next free row while it is on the free list. */
        uint64_t page = 0;
        /** Bit i of ghost[l]: lane l's block is in candidate i's
         * ghost. */
        uint8_t ghost[kLanes] = {};
        /** Bit i of mct[l]: candidate i's MCT tracks lane l's block.
         * A candidate never holds a block in both: allocation leaves
         * the MCT. */
        uint8_t mct[kLanes] = {};
        Lane lanes[kLanes];

        /** A lane mask array as one word, lane l in byte l. */
        static uint64_t
        word(const uint8_t (&masks)[kLanes])
        {
            uint64_t w;
            std::memcpy(&w, masks, sizeof(w));
            return w;
        }
        /** True while some lane holds a bit. */
        bool live() const { return (word(ghost) | word(mct)) != 0; }
    };
    static_assert(kLanes == sizeof(uint64_t),
                  "Row::word reads a lane mask array as one word");
    static_assert(sizeof(Row) == 24 + kLanes * sizeof(Lane),
                  "a shadow row is a 24-byte header plus its lanes");

    /** One shadow setting's thresholds and tallies. */
    struct Candidate
    {
        uint32_t t1 = 0;
        uint32_t t2 = 0;
        /** Accesses the ghost captured this epoch. */
        uint64_t captured = 0;
        /** Misses admitted past the shadow IMCT. */
        uint64_t qualified = 0;
        /** Shadow allocations (ghost inserts). */
        uint64_t allocated = 0;
        /** Subwindow of the candidate's last shadow miss: the point
         * its eager MCT would last have been pruned at. */
        uint32_t prune_sub = 0;
    };

    /** Fused shadow IMCT slot: one counter per candidate. */
    using ImctSlot = std::array<WindowedCounter, kCandidates>;

    static constexpr uint32_t kNoRow = UINT32_MAX;

    /** Feed one access to every candidate's mini-simulation. */
    void observe(const trace::BlockAccess &access);
    /** Re-derive the neighborhood around (t1_, t2_) and reset the
     * per-epoch counters. Ghost contents survive re-centering: the
     * simulated residency self-corrects within the next epoch. */
    void recenter();
    uint32_t clampT1(int64_t t1) const;
    uint32_t clampT2(int64_t t2) const;

    Row &
    row(uint32_t r)
    {
        return chunks_[r / kChunkRows][r % kChunkRows];
    }
    const Row &
    row(uint32_t r) const
    {
        return chunks_[r / kChunkRows][r % kChunkRows];
    }
    /** Take a row for `page` (free list first), index it and memo it. */
    uint32_t addRow(trace::BlockId page);
    /** Unindex a row, push it on the free list and, if it is the
     * memo's row, memo its page as untracked. */
    void freeRow(uint32_t r);
    /** Candidate i's shadow allocation of lane `lane` of row `r`: most
     * recent in its ghost, evicting the oldest block first at budget. */
    void ghostInsert(size_t i, uint32_t r, size_t lane);
    /** Clear the MCT bits in `candidates` (a candidate bit mask) that
     * are stale as of each one's prune subwindow, and free the rows
     * left empty except `keep`. */
    void expire(uint8_t candidates, uint32_t keep);

    AdaptiveSieveConfig cfg_;
    /** Production sieve: the only decision maker. */
    SieveStoreCPolicy main_;
    std::array<Candidate, kCandidates> cand_;
    uint32_t t1_;
    uint32_t t2_;
    uint64_t switches_ = 0;
    std::vector<std::pair<uint32_t, uint32_t>> history_;

    /** Page -> row. */
    util::FlatIndex<uint32_t> rows_by_page_;
    /** Row arena: fixed-size chunks, so rows never move. */
    std::vector<std::unique_ptr<Row[]>> chunks_;
    /** Rows handed out so far (live or free). */
    uint32_t rows_used_ = 0;
    uint32_t free_row_ = kNoRow;
    /** The last observed page and its row (kNoRow: untracked), so a
     * run of same-page accesses probes the index once. kNoPage is no
     * page start, so it never matches. */
    static constexpr uint64_t kNoPage = UINT64_MAX;
    uint64_t memo_page_ = kNoPage;
    uint32_t memo_row_ = kNoRow;
    std::vector<ImctSlot> imct_;
    /** Ghost recency per candidate (front = most recent); node values
     * are row * kLanes + lane. */
    std::array<util::IndexList, kCandidates> ghosts_;
    /** Newest subwindow every candidate had pruned at when the bank
     * last swept. */
    uint32_t swept_sub_ = 0;
};

} // namespace core
} // namespace sievestore

#endif // SIEVESTORE_CORE_AUTO_TUNE_HPP
