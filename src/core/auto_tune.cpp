#include "core/auto_tune.hpp"

#include <algorithm>
#include <bit>

#include "util/alloc_guard.hpp"
#include "util/check.hpp"
#include "util/footprint.hpp"
#include "util/hashing.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace core {

AutoTunedSievePolicy::AutoTunedSievePolicy(SieveStoreCConfig sieve_cfg_,
                                           AutoTuneConfig tune_)
    : sieve_cfg(sieve_cfg_), tune(tune_), t2(sieve_cfg_.t2)
{
    if (tune.min_t2 == 0 || tune.min_t2 > tune.max_t2)
        util::fatal("auto-tune t2 bounds must satisfy 1 <= min <= max");
    if (tune.churn_budget <= 0.0)
        util::fatal("auto-tune churn budget must be positive");
    checkMissThreshold(tune.max_t2, "auto-tune max_t2");
    if (t2 < tune.min_t2)
        t2 = tune.min_t2;
    if (t2 > tune.max_t2)
        t2 = tune.max_t2;
    sieve_cfg.t2 = t2;
    sieve = std::make_unique<SieveStoreCPolicy>(sieve_cfg);
}

// SIEVE_MAY_ALLOC: closing a day appends one entry to the t2
// history — amortized, once per simulated day, off the per-request
// path the batch no-alloc region covers.
void SIEVE_MAY_ALLOC
AutoTunedSievePolicy::rollDay(uint64_t day)
{
    if (day_known && day == current_day)
        return;
    if (day_known) {
        // Close the finished day: compare its allocation volume to the
        // churn budget and nudge t2 by one step with hysteresis.
        const double budget_blocks =
            tune.churn_budget * static_cast<double>(tune.cache_blocks);
        const double allocs = static_cast<double>(allocs_today);
        if (allocs > budget_blocks * (1.0 + tune.slack) &&
            t2 < tune.max_t2) {
            ++t2;
        } else if (allocs < budget_blocks * (1.0 - tune.slack) &&
                   t2 > tune.min_t2) {
            --t2;
        }
        sieve->setT2(t2);
        history.push_back(t2);
    }
    current_day = day;
    day_known = true;
    allocs_today = 0;
}

AllocDecision
AutoTunedSievePolicy::onMiss(const trace::BlockAccess &access)
{
    rollDay(util::dayOf(access.time));
    const AllocDecision decision = sieve->onMiss(access);
    if (decision == AllocDecision::Allocate)
        ++allocs_today;
    return decision;
}

void
AutoTunedSievePolicy::onHit(const trace::BlockAccess &access)
{
    rollDay(util::dayOf(access.time));
    sieve->onHit(access);
}

uint64_t
AutoTunedSievePolicy::metastateBytes() const
{
    return sieve->metastateBytes();
}

// ---- online adaptive sieve ----------------------------------------

namespace {

constexpr uint8_t kAllCandidates =
    (1u << AdaptiveSievePolicy::kCandidates) - 1;

constexpr uint8_t
bitOf(size_t i)
{
    return static_cast<uint8_t>(1u << i);
}

} // namespace

AdaptiveSievePolicy::AdaptiveSievePolicy(AdaptiveSieveConfig config)
    : cfg_(config), main_(config.base)
{
    if (cfg_.min_t1 == 0 || cfg_.min_t1 > cfg_.max_t1)
        util::fatal("adaptive sieve t1 bounds must satisfy "
                    "1 <= min <= max");
    if (cfg_.min_t2 == 0 || cfg_.min_t2 > cfg_.max_t2)
        util::fatal("adaptive sieve t2 bounds must satisfy "
                    "1 <= min <= max");
    checkMissThreshold(cfg_.max_t1, "adaptive sieve max_t1");
    checkMissThreshold(cfg_.max_t2, "adaptive sieve max_t2");
    if (cfg_.ghost_budget == 0)
        util::fatal("adaptive sieve ghost budget must be positive");
    if (cfg_.ghost_budget >= util::IndexList::kNull)
        util::fatal("adaptive sieve ghost budget must be below 2^32 - 1");
    if (cfg_.imct_slots == 0)
        util::fatal("adaptive sieve shadow IMCT needs at least one slot");
    if (cfg_.base.imct_only || cfg_.base.mct_only ||
        !cfg_.base.prune_on_subwindow)
        util::fatal("adaptive sieve shadows run the two-tier sieve with "
                    "subwindow pruning: imct_only, mct_only and "
                    "prune_on_subwindow = false are not supported");
    t1_ = clampT1(cfg_.base.t1);
    t2_ = clampT2(cfg_.base.t2);
    main_.setThresholds(t1_, t2_);

    imct_.resize(cfg_.imct_slots);
    // Reserved once: evict-before-insert keeps each ghost at or below
    // its budget, so no list arena ever grows again.
    for (auto &ghost : ghosts_)
        ghost.reserve(cfg_.ghost_budget);
    recenter();
}

uint32_t
AdaptiveSievePolicy::clampT1(int64_t t1) const
{
    return static_cast<uint32_t>(std::clamp<int64_t>(
        t1, cfg_.min_t1, cfg_.max_t1));
}

uint32_t
AdaptiveSievePolicy::clampT2(int64_t t2) const
{
    return static_cast<uint32_t>(std::clamp<int64_t>(
        t2, cfg_.min_t2, cfg_.max_t2));
}

void
AdaptiveSievePolicy::recenter()
{
    // Five fixed slots: the incumbent plus its four one-step
    // neighbors. Clamping can make a neighbor coincide with the
    // incumbent; the duplicate is harmless because ties favor slot 0.
    const int64_t t1 = t1_, t2 = t2_;
    const int64_t s1 = cfg_.t1_step, s2 = cfg_.t2_step;
    const std::pair<uint32_t, uint32_t> settings[kCandidates] = {
        {t1_, t2_},
        {clampT1(t1 - s1), t2_},
        {clampT1(t1 + s1), t2_},
        {t1_, clampT2(t2 - s2)},
        {t1_, clampT2(t2 + s2)},
    };
    for (size_t i = 0; i < kCandidates; ++i) {
        cand_[i].t1 = settings[i].first;
        cand_[i].t2 = settings[i].second;
        cand_[i].captured = 0;
    }
}

uint32_t
AdaptiveSievePolicy::addRow(trace::BlockId page)
{
    uint32_t r = free_row_;
    if (r != kNoRow) {
        free_row_ = static_cast<uint32_t>(row(r).page);
    } else {
        if (rows_used_ == chunks_.size() * kChunkRows) {
            // A new chunk is the arena's one allocation; chunks never
            // move, so rows and pointers into them stay put.
            SIEVE_CHECK(rows_used_ < kNoRow - kChunkRows,
                        "adaptive shadow bank exceeds 2^32 rows");
            util::AllocGuardDisarm growth;
            chunks_.push_back(std::make_unique<Row[]>(kChunkRows));
        }
        r = rows_used_++;
    }
    row(r).page = page;
    memo_page_ = page;
    memo_row_ = r;
    if (!rows_by_page_.hasCapacityFor(1)) {
        // Amortized index growth, exempted as in Mct::admit.
        util::AllocGuardDisarm growth;
        *rows_by_page_.findOrInsert(page).first = r;
        return r;
    }
    SIEVE_ASSERT_NO_ALLOC;
    *rows_by_page_.findOrInsert(page).first = r;
    return r;
}

void
AdaptiveSievePolicy::freeRow(uint32_t r)
{
    Row &w = row(r);
    SIEVE_DCHECK(!w.live());
    const bool erased = rows_by_page_.erase(w.page);
    SIEVE_CHECK(erased, "shadow row %u's page %llx is not indexed", r,
                static_cast<unsigned long long>(w.page));
    if (r == memo_row_)
        memo_row_ = kNoRow; // the memo's page is untracked now
    w.page = free_row_;
    free_row_ = r;
}

void
AdaptiveSievePolicy::ghostInsert(size_t i, uint32_t r, size_t lane)
{
    // The GhostCache::insert contract on a fused row: evict the
    // oldest block first at budget, then push the new one to the
    // front. The victim is never r's lane (that block is not in this
    // ghost), but it may be another lane of r's page; r may then hold
    // no bit until the push below, so it must not be freed here.
    util::IndexList &ghost = ghosts_[i];
    if (ghost.size() >= cfg_.ghost_budget) {
        const uint64_t victim = ghost.value(ghost.tail());
        ghost.erase(ghost.tail());
        const auto vr = static_cast<uint32_t>(victim / kLanes);
        Row &v = row(vr);
        v.ghost[victim % kLanes] &= static_cast<uint8_t>(~bitOf(i));
        if (vr != r && !v.live())
            freeRow(vr);
    }
    Row &w = row(r);
    w.ghost[lane] |= bitOf(i);
    w.lanes[lane].node[i] = ghost.pushFront(uint64_t{r} * kLanes + lane);
}

void
AdaptiveSievePolicy::expire(uint8_t candidates, uint32_t keep)
{
    SIEVE_ASSERT_NO_ALLOC;
    const WindowSpec &spec = cfg_.base.window;
    // `candidates` in every lane's byte.
    const uint64_t swept = candidates * 0x0101010101010101ULL;
    for (uint32_t r = 0; r < rows_used_; ++r) {
        Row &w = row(r);
        if ((Row::word(w.mct) & swept) == 0)
            continue; // free rows hold no bits
        for (size_t l = 0; l < kLanes; ++l) {
            for (unsigned due = w.mct[l] & candidates; due != 0;
                 due &= due - 1) {
                const auto i = static_cast<size_t>(std::countr_zero(due));
                if (w.lanes[l].count[i].stale(cand_[i].prune_sub, spec))
                    w.mct[l] &= static_cast<uint8_t>(~bitOf(i));
            }
        }
        if (r != keep && !w.live())
            freeRow(r);
    }
}

void
AdaptiveSievePolicy::observe(const trace::BlockAccess &access)
{
    // Each candidate runs a mini cache simulation: its ghost is the
    // LRU residency set of blocks its shadow sieve would have
    // allocated. A ghost hit is an access that setting would have
    // captured (and refreshes recency); a ghost miss runs
    // SieveStoreCPolicy::onMiss at the candidate's thresholds against
    // the candidate's slice of the bank.
    SIEVE_ASSERT_NO_ALLOC;
    const WindowSpec &spec = cfg_.base.window;
    const uint32_t sub = spec.subwindowOf(access.time);
    const trace::BlockId page = trace::pageStart(access.block);
    const auto lane = static_cast<size_t>(access.block - page);
    if (page != memo_page_) {
        const uint32_t *found = rows_by_page_.find(page);
        memo_page_ = page;
        memo_row_ = found != nullptr ? *found : kNoRow;
    }
    uint32_t r = memo_row_;
    // Chunks never move, and r is freed only at the end, so the row
    // pointer stays valid through the loop.
    Row *w = r != kNoRow ? &row(r) : nullptr;
    ImctSlot *slot = nullptr;
    for (size_t i = 0; i < kCandidates; ++i) {
        Candidate &c = cand_[i];
        const uint8_t bit = bitOf(i);
        if (w != nullptr && (w->ghost[lane] & bit) != 0) {
            ++c.captured;
            ghosts_[i].moveToFront(w->lanes[lane].node[i]);
            continue;
        }
        // The shadow's subwindow-boundary prune. Lazy expiry below
        // treats entries stale as of prune_sub as gone, which is what
        // the prune left behind while the subwindow only advances; a
        // backward step must first drop what the newer prune dropped.
        if (sub != c.prune_sub) {
            if (sub < c.prune_sub)
                expire(bit, r);
            c.prune_sub = sub;
        }
        if (w != nullptr && (w->mct[lane] & bit) != 0) {
            WindowedCounter &count = w->lanes[lane].count[i];
            if (!count.stale(sub, spec)) {
                if (count.record(sub, spec) >= c.t2) {
                    w->mct[lane] &= static_cast<uint8_t>(~bit);
                    ++c.allocated;
                    ghostInsert(i, r, lane);
                }
                continue;
            }
            w->mct[lane] &= static_cast<uint8_t>(~bit);
        }
        if (slot == nullptr) // Imct::slotOf, with the base seed
            slot = &imct_[util::reduceRange(
                util::seededHash(access.block, cfg_.base.seed),
                imct_.size())];
        // t2 >= min_t2 >= 1, so a qualified block always waits in
        // the MCT for its additional misses.
        if ((*slot)[i].record(sub, spec) >= c.t1) {
            ++c.qualified;
            if (w == nullptr) {
                r = addRow(page);
                w = &row(r);
            }
            w->mct[lane] |= bit;
            w->lanes[lane].count[i] = WindowedCounter{};
            w->lanes[lane].count[i].touch(sub, spec);
        }
    }
    if (w != nullptr && !w->live())
        freeRow(r);
    // One sweep per subwindow, once every candidate's prune point has
    // reached it, reclaims what all five prunes would have dropped. A
    // candidate whose first access of the subwindow was a ghost hit
    // has not pruned yet; sweeping before it does would leave its
    // expired entries, and their rows, for another subwindow.
    uint32_t pruned = cand_[0].prune_sub;
    for (const Candidate &c : cand_)
        pruned = std::min(pruned, c.prune_sub);
    if (pruned > swept_sub_) {
        swept_sub_ = pruned;
        expire(kAllCandidates, kNoRow);
    }
}

AllocDecision
AdaptiveSievePolicy::onMiss(const trace::BlockAccess &access)
{
    observe(access);
    return main_.onMiss(access);
}

void
AdaptiveSievePolicy::onHit(const trace::BlockAccess &access)
{
    observe(access);
    main_.onHit(access);
}

void
AdaptiveSievePolicy::prefetchMiss(trace::BlockId block) const
{
    main_.prefetchMiss(block);
}

// SIEVE_MAY_ALLOC: the per-day-close history append — once per
// simulated day, off the batch no-alloc path (finishDay runs between
// processBatch calls).
void SIEVE_MAY_ALLOC
AdaptiveSievePolicy::onDayClose(int day)
{
    (void)day;
    // Winner takes the thresholds. Strict > keeps ties (including a
    // fully idle day, all counters zero) with the incumbent.
    size_t best = 0;
    for (size_t i = 1; i < kCandidates; ++i)
        if (cand_[i].captured > cand_[best].captured)
            best = i;
    const Candidate &win = cand_[best];
    if (win.t1 != t1_ || win.t2 != t2_) {
        t1_ = win.t1;
        t2_ = win.t2;
        main_.setThresholds(t1_, t2_);
        ++switches_;
    }
    history_.emplace_back(t1_, t2_);
    recenter();
}

std::optional<SieveTuning>
AdaptiveSievePolicy::tuning() const
{
    return SieveTuning{t1_, t2_, switches_};
}

AdaptiveSievePolicy::BankBytes
AdaptiveSievePolicy::bankBytes() const
{
    BankBytes b;
    b.index = rows_by_page_.memoryBytes();
    b.chunks = static_cast<uint64_t>(chunks_.size()) * kChunkRows *
                   sizeof(Row) +
               util::vectorFootprintBytes(chunks_);
    b.imct = util::vectorFootprintBytes(imct_);
    for (const auto &ghost : ghosts_)
        b.ghosts += ghost.memoryBytes();
    return b;
}

size_t
AdaptiveSievePolicy::shadowRows() const
{
    size_t blocks = 0;
    for (uint32_t r = 0; r < rows_used_; ++r) {
        const Row &w = row(r);
        for (size_t l = 0; l < kLanes; ++l)
            blocks += (w.ghost[l] | w.mct[l]) != 0 ? 1 : 0;
    }
    return blocks;
}

uint64_t
AdaptiveSievePolicy::metastateBytes() const
{
    // The adaptive sieve is honest about its full cost: production
    // tables plus the whole shadow bank.
    return main_.metastateBytes() + bankBytes().total();
}

uint64_t
AdaptiveSievePolicy::candidateCaptured(size_t i) const
{
    SIEVE_CHECK(i < kCandidates, "candidate index %zu out of %zu", i,
                kCandidates);
    return cand_[i].captured;
}

std::pair<uint32_t, uint32_t>
AdaptiveSievePolicy::candidateSetting(size_t i) const
{
    SIEVE_CHECK(i < kCandidates, "candidate index %zu out of %zu", i,
                kCandidates);
    return {cand_[i].t1, cand_[i].t2};
}

void
AdaptiveSievePolicy::checkInvariants() const
{
    SIEVE_CHECK(t1_ >= cfg_.min_t1 && t1_ <= cfg_.max_t1,
                "adaptive t1=%u escaped [%u, %u]", t1_, cfg_.min_t1,
                cfg_.max_t1);
    SIEVE_CHECK(t2_ >= cfg_.min_t2 && t2_ <= cfg_.max_t2,
                "adaptive t2=%u escaped [%u, %u]", t2_, cfg_.min_t2,
                cfg_.max_t2);
    SIEVE_CHECK(cand_[0].t1 == t1_ && cand_[0].t2 == t2_,
                "candidate slot 0 must mirror the incumbent setting");
    main_.checkInvariants();
    const WindowSpec &spec = cfg_.base.window;

    // Rows against the index: every live row is indexed under its
    // page, and no lane has one candidate in both its ghost and its
    // MCT; every other row is on the free list, and the index holds
    // nothing else. The memo agrees with the index.
    rows_by_page_.checkInvariants();
    SIEVE_CHECK(chunks_.size() * kChunkRows >= rows_used_,
                "%u rows handed out from %zu chunks", rows_used_,
                chunks_.size());
    size_t live = 0;
    size_t in_ghost[kCandidates] = {};
    size_t in_mct[kCandidates] = {};
    for (uint32_t r = 0; r < rows_used_; ++r) {
        const Row &w = row(r);
        if (!w.live())
            continue;
        ++live;
        SIEVE_CHECK(trace::pageStart(w.page) == w.page,
                    "shadow row %u's key %llx is not a page start", r,
                    static_cast<unsigned long long>(w.page));
        const uint32_t *indexed = rows_by_page_.find(w.page);
        SIEVE_CHECK(indexed != nullptr && *indexed == r,
                    "shadow row %u's page %llx is not indexed to it", r,
                    static_cast<unsigned long long>(w.page));
        for (size_t l = 0; l < kLanes; ++l) {
            const uint8_t ghost = w.ghost[l], mct = w.mct[l];
            SIEVE_CHECK(((ghost | mct) & ~kAllCandidates) == 0,
                        "shadow row %u lane %zu holds bits ghost=%#x "
                        "mct=%#x",
                        r, l, ghost, mct);
            SIEVE_CHECK((ghost & mct) == 0,
                        "shadow row %u lane %zu is in a candidate's "
                        "ghost and MCT at once (ghost=%#x mct=%#x)",
                        r, l, ghost, mct);
            for (size_t i = 0; i < kCandidates; ++i) {
                if ((ghost & bitOf(i)) != 0)
                    ++in_ghost[i];
                if ((mct & bitOf(i)) != 0) {
                    ++in_mct[i];
                    w.lanes[l].count[i].checkInvariants(spec);
                }
            }
        }
    }
    SIEVE_CHECK(live == rows_by_page_.size(),
                "%zu live shadow rows, %zu indexed", live,
                rows_by_page_.size());
    size_t free_rows = 0;
    for (uint32_t r = free_row_; r != kNoRow;
         r = static_cast<uint32_t>(row(r).page)) {
        SIEVE_CHECK(r < rows_used_ && !row(r).live(),
                    "shadow free list reaches row %u", r);
        SIEVE_CHECK(++free_rows <= rows_used_ - live,
                    "shadow free list longer than the free rows");
    }
    SIEVE_CHECK(free_rows + live == rows_used_,
                "%zu free + %zu live shadow rows, %u handed out",
                free_rows, live, rows_used_);
    // kNoPage is no page start, so no live row is indexed under it.
    const uint32_t *memo = rows_by_page_.find(memo_page_);
    SIEVE_CHECK((memo != nullptr ? *memo : kNoRow) == memo_row_,
                "shadow memo maps page %llx to row %u against the index",
                static_cast<unsigned long long>(memo_page_), memo_row_);

    for (size_t i = 0; i < kCandidates; ++i) {
        const Candidate &c = cand_[i];
        SIEVE_CHECK(c.t1 >= cfg_.min_t1 && c.t1 <= cfg_.max_t1 &&
                        c.t2 >= cfg_.min_t2 && c.t2 <= cfg_.max_t2,
                    "shadow setting (%u, %u) escaped the bounds", c.t1,
                    c.t2);
        // Ghost list against the rows.
        const util::IndexList &ghost = ghosts_[i];
        ghost.checkInvariants();
        SIEVE_CHECK(ghost.size() <= cfg_.ghost_budget,
                    "candidate %zu's ghost tracks %zu blocks, budget "
                    "%llu",
                    i, ghost.size(),
                    static_cast<unsigned long long>(cfg_.ghost_budget));
        SIEVE_CHECK(ghost.size() == in_ghost[i],
                    "candidate %zu's ghost list holds %zu blocks, its "
                    "rows %zu",
                    i, ghost.size(), in_ghost[i]);
        for (uint32_t n = ghost.head(); n != util::IndexList::kNull;
             n = ghost.next(n)) {
            const uint64_t r = ghost.value(n) / kLanes;
            const size_t l = ghost.value(n) % kLanes;
            SIEVE_CHECK(r < rows_used_, "candidate %zu's ghost links row "
                        "%llu of %u", i,
                        static_cast<unsigned long long>(r), rows_used_);
            const Row &w = row(static_cast<uint32_t>(r));
            SIEVE_CHECK((w.ghost[l] & bitOf(i)) != 0 &&
                            w.lanes[l].node[i] == n,
                        "candidate %zu's ghost node %u and row %llu lane "
                        "%zu disagree",
                        i, n, static_cast<unsigned long long>(r), l);
        }
        // Every MCT entry and every allocation consumed one IMCT
        // qualification (the SieveStoreCPolicy audit, per candidate).
        SIEVE_CHECK(in_mct[i] + c.allocated <= c.qualified,
                    "candidate %zu holds %zu MCT entries + %llu "
                    "allocations but only %llu IMCT qualifications",
                    i, in_mct[i],
                    static_cast<unsigned long long>(c.allocated),
                    static_cast<unsigned long long>(c.qualified));
    }
    SIEVE_CHECK(!imct_.empty());
    for (const ImctSlot &slot : imct_)
        for (const WindowedCounter &counter : slot)
            counter.checkInvariants(spec);
}

} // namespace core
} // namespace sievestore
