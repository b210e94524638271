#include "core/appliance.hpp"

#include <algorithm>
#include <functional>

#include "trace/expand.hpp"
#include "util/alloc_guard.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"
#include "util/sim_time.hpp"

namespace sievestore {
namespace core {

using trace::BlockId;

namespace {

/** Pick the cache engine: custom policy if configured, else flat. */
cache::BlockCache
makeCache(const ApplianceConfig &config)
{
    if (config.replacement)
        return cache::BlockCache(config.cache_blocks,
                                 config.replacement());
    return cache::BlockCache(config.cache_blocks, config.eviction);
}

/** Initial capacity of the in-flight allocation structures. */
constexpr size_t kPendingReserve = 1024;

} // namespace

void
DailyReport::add(const DailyReport &other)
{
    accesses += other.accesses;
    read_accesses += other.read_accesses;
    hits += other.hits;
    read_hits += other.read_hits;
    write_hits += other.write_hits;
    allocation_write_blocks += other.allocation_write_blocks;
    batch_moved_blocks += other.batch_moved_blocks;
    ssd_read_ios += other.ssd_read_ios;
    ssd_write_ios += other.ssd_write_ios;
    ssd_alloc_ios += other.ssd_alloc_ios;
    tune_t1 = std::max(tune_t1, other.tune_t1);
    tune_t2 = std::max(tune_t2, other.tune_t2);
    tune_switches += other.tune_switches;
    storage_read_ios += other.storage_read_ios;
    storage_write_ios += other.storage_write_ios;
    storage_read_errors += other.storage_read_errors;
    storage_write_errors += other.storage_write_errors;
    storage_read_ns += other.storage_read_ns;
    storage_write_ns += other.storage_write_ns;
}

DailyReport
sumReports(const std::vector<DailyReport> &days)
{
    DailyReport sum;
    for (const auto &d : days)
        sum.add(d);
    return sum;
}

void
Appliance::initOccupancy()
{
    if (cfg.track_occupancy)
        occupancy_ =
            std::make_unique<ssd::DriveOccupancyTracker>(cfg.ssd);
    alloc_queue.reserve(kPendingReserve);
    pending.reserve(kPendingReserve);
    backend_ = storage::makeBackend(cfg.backend, cfg.ssd,
                                    cfg.cache_blocks);
}

Appliance::Appliance(ApplianceConfig config)
    : cfg(std::move(config)), cache_(makeCache(cfg))
{
    if (cfg.allocation)
        sieve_.emplace(cfg.allocation());
    else
        sieve_.emplace(cfg.sieve);
    initOccupancy();
}

Appliance::Appliance(ApplianceConfig config,
                     std::unique_ptr<AllocationPolicy> policy)
    : cfg(std::move(config)), cache_(makeCache(cfg))
{
    sieve_.emplace(std::move(policy));
    initOccupancy();
}

Appliance::Appliance(ApplianceConfig config,
                     std::unique_ptr<DiscreteSelector> selector)
    : cfg(std::move(config)), selector_(std::move(selector)),
      cache_(makeCache(cfg))
{
    if (!selector_)
        util::fatal("appliance requires a discrete selector");
    initOccupancy();
}

// SIEVE_MAY_ALLOC: the per-day report vector grows on the first
// request of each new day. processBatch performs that lookup before
// arming its no-alloc region, and batches never straddle a day, so
// the armed path only ever re-reads an existing slot.
SIEVE_MAY_ALLOC DailyReport &
Appliance::reportFor(util::TimeUs t)
{
    const size_t day = util::dayOf(t);
    if (day >= reports.size())
        reports.resize(day + 1);
    return reports[day];
}

bool
Appliance::flatEnginesOnly() const
{
    return sieve_ && sieve_->custom() == nullptr && !occupancy_ &&
           cache_.customPolicy() == nullptr;
}

void
Appliance::pushAlloc(const PendingAlloc &ev)
{
    if (alloc_queue.size() == alloc_queue.capacity()) {
        // Amortized heap growth is the one legitimate allocation
        // here; exempt it so the batch-level no-alloc region stays
        // armed across it.
        util::AllocGuardDisarm growth;
        alloc_queue.reserve(
            std::max<size_t>(kPendingReserve, alloc_queue.capacity() * 2));
    }
    alloc_queue.push_back(ev);
    std::push_heap(alloc_queue.begin(), alloc_queue.end(),
                   std::greater<PendingAlloc>());
}

void
Appliance::notePending(BlockId block)
{
    if (!pending.hasCapacityFor(1)) {
        util::AllocGuardDisarm growth; // amortized table growth
        pending.reserve(std::max<size_t>(kPendingReserve,
                                         pending.size() * 2));
    }
    pending.findOrInsert(block);
}

void
Appliance::drainAllocations(util::TimeUs up_to)
{
    while (!alloc_queue.empty() &&
           alloc_queue.front().completion <= up_to) {
        const PendingAlloc ev = alloc_queue.front();
        std::pop_heap(alloc_queue.begin(), alloc_queue.end(),
                      std::greater<PendingAlloc>());
        alloc_queue.pop_back();
        pending.erase(ev.block);
        if (cache_.contains(ev.block))
            continue; // raced with a batch install
        const std::optional<BlockId> victim = cache_.insert(ev.block);
        if (victim)
            stageTrim(ev.completion, *victim);
        DailyReport &rep = reportFor(ev.completion);
        ++rep.allocation_write_blocks;
        if (ev.new_io_unit) {
            ++rep.ssd_alloc_ios;
            stageWrite(ev.completion, ev.block);
            if (occupancy_)
                occupancy_->recordWrites(ev.completion, 1);
        }
    }
}

void
Appliance::stageRead(util::TimeUs t, BlockId block)
{
    if (!backend_)
        return;
    stage_reads_[n_stage_reads_++] =
        storage::StorageOp{t, trace::pageStart(block)};
    if (n_stage_reads_ == kStorageStage)
        flushStorageReads();
}

void
Appliance::stageWrite(util::TimeUs t, BlockId block)
{
    if (!backend_)
        return;
    stage_writes_[n_stage_writes_++] =
        storage::StorageOp{t, trace::pageStart(block)};
    if (n_stage_writes_ == kStorageStage)
        flushStorageWrites();
}

void
Appliance::stageTrim(util::TimeUs t, BlockId block)
{
    if (!backend_)
        return;
    stage_trims_[n_stage_trims_++] =
        storage::StorageOp{t, trace::pageStart(block)};
    if (n_stage_trims_ == kStorageStage)
        flushStorageTrims();
}

// The flush helpers run inside armed no-alloc regions when a stage
// array fills mid-batch. They stay allocation-free at runtime: every
// staged op's time belongs to a day whose report slot already exists
// (the hit path stages at req.time after processBatch's reportFor;
// the drain stages at completions <= the current request time; batch
// moves resize the serve day's slot first), so the attribution
// lookups below only re-read existing slots.
void
Appliance::flushStorageReads()
{
    if (n_stage_reads_ == 0)
        return;
    backend_->readBlocks(
        std::span<const storage::StorageOp>(stage_reads_,
                                            n_stage_reads_),
        std::span<uint32_t>(stage_lat_, n_stage_reads_));
    for (size_t i = 0; i < n_stage_reads_; ++i) {
        DailyReport &rep = reportFor(stage_reads_[i].time);
        if (stage_lat_[i] == storage::kFailedOp) {
            ++rep.storage_read_errors;
        } else {
            ++rep.storage_read_ios;
            rep.storage_read_ns += stage_lat_[i];
        }
    }
    n_stage_reads_ = 0;
}

void
Appliance::flushStorageWrites()
{
    if (n_stage_writes_ == 0)
        return;
    backend_->writeBlocks(
        std::span<const storage::StorageOp>(stage_writes_,
                                            n_stage_writes_),
        std::span<uint32_t>(stage_lat_, n_stage_writes_));
    for (size_t i = 0; i < n_stage_writes_; ++i) {
        DailyReport &rep = reportFor(stage_writes_[i].time);
        if (stage_lat_[i] == storage::kFailedOp) {
            ++rep.storage_write_errors;
        } else {
            ++rep.storage_write_ios;
            rep.storage_write_ns += stage_lat_[i];
        }
    }
    n_stage_writes_ = 0;
}

void
Appliance::flushStorageTrims()
{
    if (n_stage_trims_ == 0)
        return;
    backend_->trimBlocks(std::span<const storage::StorageOp>(
        stage_trims_, n_stage_trims_));
    n_stage_trims_ = 0;
}

void
Appliance::flushStorage()
{
    if (!backend_)
        return;
    flushStorageReads();
    flushStorageWrites();
    flushStorageTrims();
}

void
Appliance::stageBatchMove(util::TimeUs t)
{
    // Page-coalesce consecutive same-unit blocks exactly like the
    // request path: the selector emits runs of contiguous blocks, so
    // adjacent-duplicate suppression matches the model's 4 KB unit
    // charging for batch installs.
    uint64_t last_page = UINT64_MAX;
    for (BlockId b : batch_alloc_scratch_) {
        const uint64_t page =
            trace::blockNrOf(b) / trace::kBlocksPerPage;
        if (page == last_page)
            continue;
        last_page = page;
        stageWrite(t, b);
    }
    last_page = UINT64_MAX;
    for (BlockId b : batch_evict_scratch_) {
        const uint64_t page =
            trace::blockNrOf(b) / trace::kBlocksPerPage;
        if (page == last_page)
            continue;
        last_page = page;
        stageTrim(t, b);
    }
}

void
Appliance::preload(const std::vector<BlockId> &blocks, int serve_day)
{
    const cache::BatchReplaceResult moved =
        backend_ ? cache_.batchReplace(blocks, &batch_alloc_scratch_,
                                       &batch_evict_scratch_)
                 : cache_.batchReplace(blocks);
    const size_t day = serve_day < 0 ? 0 : static_cast<size_t>(serve_day);
    if (day >= reports.size())
        reports.resize(day + 1);
    reports[day].batch_moved_blocks += moved.allocated;
    if (backend_) {
        stageBatchMove(static_cast<util::TimeUs>(day) *
                       util::kUsPerDay);
        flushStorage();
    }
}

void
Appliance::processRequestInto(const trace::Request &req, DailyReport &rep)
{
    const bool is_read = req.op == trace::Op::Read;
    // Discrete selectors observe every access in block order
    // (SieveStore-D logs *accesses*, not misses); continuous sieves
    // see each hit and sieve each miss.
    const bool discrete = selector_ != nullptr;

    // Page-coalescing state: contiguous blocks of the same request that
    // share a 4 KB unit cost one SSD I/O (sub-4 KB charged as full).
    uint64_t last_hit_page = UINT64_MAX;
    uint64_t last_alloc_page = UINT64_MAX;

    trace::BlockAccess access;
    access.time = req.time;
    access.server = req.server;
    access.op = req.op;

    constexpr size_t kChunk = cache::BlockCache::kProbeBatch;
    BlockId keys[kChunk];
    cache::PolicyState *st[kChunk];

    for (uint32_t base = 0; base < req.length_blocks;
         base += static_cast<uint32_t>(kChunk)) {
        const auto n = static_cast<uint32_t>(
            std::min<size_t>(kChunk, req.length_blocks - base));

        // Phase 1 — probe-gather: one findBatch resolves the whole
        // chunk's residency through the hash-ahead/prefetch kernel.
        // Nothing mutates the cache index within a request (pending
        // allocations drain between requests), so the gathered
        // pointers and the hit/miss partition stay exact.
        for (uint32_t i = 0; i < n; ++i)
            keys[i] = req.blockAt(base + i);
        cache_.probeBatch(std::span<const BlockId>(keys, n),
                          std::span<cache::PolicyState *>(st, n));

        // Phase 2 — sieve prefetch: every gathered miss is about to
        // consult the pending set and the sieve tiers; start their
        // lines (pending home slot, IMCT slot, MCT home slot) toward
        // L1 before the in-order pass issues its dependent loads.
        if (!discrete) {
            for (uint32_t i = 0; i < n; ++i) {
                if (st[i] == nullptr) {
                    pending.prefetch(keys[i]);
                    sieve_->prefetchMiss(keys[i]);
                }
            }
        }

        // Phase 3 — decide + mutate, in block order, with the
        // residency probe already resolved. Hit transitions touch
        // policy state (slot payloads, order books or the custom
        // policy), never the index structure.
        for (uint32_t i = 0; i < n; ++i) {
            const BlockId block = keys[i];
            const uint64_t page = trace::blockNrOf(block) /
                                  trace::kBlocksPerPage;
            access.block = block;
            access.completion =
                trace::interpolatedCompletion(req, base + i);

            ++rep.accesses;
            if (is_read)
                ++rep.read_accesses;
            if (discrete)
                observed_[i] = access;

            if (st[i] != nullptr) {
                cache_.touchProbed(block, *st[i]);
                ++rep.hits;
                if (is_read)
                    ++rep.read_hits;
                else
                    ++rep.write_hits;
                if (page != last_hit_page) {
                    last_hit_page = page;
                    if (is_read) {
                        ++rep.ssd_read_ios;
                        stageRead(req.time, block);
                        if (occupancy_)
                            occupancy_->recordReads(req.time, 1);
                    } else {
                        ++rep.ssd_write_ios;
                        stageWrite(req.time, block);
                        if (occupancy_)
                            occupancy_->recordWrites(req.time, 1);
                    }
                }
                if (!discrete)
                    sieve_->onHit(access);
                continue;
            }

            if (discrete || pending.contains(block))
                continue; // observed above, or allocation in flight
            if (sieve_->onMiss(access) == AllocDecision::Allocate) {
                notePending(block);
                const bool new_unit = page != last_alloc_page;
                last_alloc_page = page;
                pushAlloc(
                    PendingAlloc{access.completion, block, new_unit});
            }
        }

        // Phase 4 — the selector observes the chunk in one call, so
        // hash-table-backed selectors get the batched hash-ahead path.
        if (discrete)
            selector_->observeBatch(
                std::span<const trace::BlockAccess>(observed_, n));
    }
}

void
Appliance::processRequest(const trace::Request &req)
{
    // Size the report vector before draining so the reference stays
    // valid: every drained completion is <= req.time, so the drain's
    // own reportFor never resizes past this one.
    DailyReport &rep = reportFor(req.time);
    drainAllocations(req.time);
    processRequestInto(req, rep);
}

void
Appliance::processBatch(std::span<const trace::Request> batch)
{
    if (batch.empty())
        return;
    // One day-report lookup per batch: the sim:: facade slices batches
    // at calendar-day boundaries, so every request lands in one day.
    DailyReport &rep = reportFor(batch.front().time);
    SIEVE_DCHECK(util::dayOf(batch.front().time) ==
                     util::dayOf(batch.back().time),
                 "processBatch: batch straddles a calendar-day boundary");
    // The flat hot path is claimed allocation-free per batch; the only
    // exemptions are the explicit amortized-growth points (sieve
    // tables, the pending set, the allocation heap).
    SIEVE_ASSERT_NO_ALLOC_WHEN(flatEnginesOnly());
    // Drain between requests, never within one: a drain can insert
    // into the cache, which would invalidate the body's gathered
    // pointers and flip later probes.
    for (const trace::Request &req : batch) {
        drainAllocations(req.time);
        processRequestInto(req, rep);
    }
}

void
Appliance::finishDay(int day)
{
    SIEVE_CHECK(day > last_finished_day,
                "finishDay(%d) after finishDay(%d): days must strictly "
                "increase",
                day, last_finished_day);
    last_finished_day = day;

    const util::TimeUs day_end =
        (static_cast<util::TimeUs>(day) + 1) * util::kUsPerDay;
    drainAllocations(day_end - 1);
    flushStorage();

    // Self-tuning epoch: after the day's allocations have drained,
    // let the sieve close its shadow epoch (the adaptive sieve may
    // switch thresholds here) and record the outcome in the day's
    // tuning columns. Thresholds are model-side data, so the columns
    // stay bit-identical across storage backends and shard layouts.
    if (sieve_) {
        const std::optional<SieveTuning> before = sieve_->tuning();
        sieve_->onDayClose(day);
        const std::optional<SieveTuning> after = sieve_->tuning();
        if (after && day >= 0) {
            const size_t slot = static_cast<size_t>(day);
            if (slot >= reports.size())
                reports.resize(slot + 1);
            DailyReport &rep = reports[slot];
            rep.tune_t1 = after->t1;
            rep.tune_t2 = after->t2;
            rep.tune_switches =
                after->switches - (before ? before->switches : 0);
        }
    }

    if (!selector_)
        return;

    // Epoch boundary: select, batch-install with cancellation, and
    // attribute the moves to the day they serve.
    const std::vector<BlockId> next_set = selector_->endOfEpoch();
    const cache::BatchReplaceResult moved =
        backend_ ? cache_.batchReplace(next_set, &batch_alloc_scratch_,
                                       &batch_evict_scratch_)
                 : cache_.batchReplace(next_set);

    const size_t serve_day = static_cast<size_t>(day) + 1;
    if (serve_day >= reports.size())
        reports.resize(serve_day + 1);
    reports[serve_day].batch_moved_blocks += moved.allocated;
    if (backend_) {
        // The batch's device writes land staggered over the serving
        // day; attribute them to its first instant.
        stageBatchMove(static_cast<util::TimeUs>(serve_day) *
                       util::kUsPerDay);
        flushStorage();
    }

    if (cfg.charge_batch_to_occupancy && occupancy_) {
        // Ablation: charge the batch as 4 KB writes spread uniformly
        // over the first 6 hours of the serving day.
        const uint64_t ios =
            (moved.allocated + trace::kBlocksPerPage - 1) /
            trace::kBlocksPerPage;
        const util::TimeUs start = serve_day * util::kUsPerDay;
        const util::TimeUs span = 6 * util::kUsPerHour;
        for (uint64_t k = 0; k < ios; ++k) {
            const util::TimeUs t =
                start + (span * k) / (ios ? ios : 1);
            occupancy_->recordWrites(t, 1);
        }
    }
}

void
Appliance::finishTrace()
{
    drainAllocations(UINT64_MAX);
    if (backend_) {
        flushStorage();
        backend_->flush();
    }
}

const ssd::DriveOccupancyTracker *
Appliance::occupancy() const
{
    return occupancy_.get();
}

const char *
Appliance::policyName() const
{
    return sieve_ ? sieve_->name() : selector_->name();
}

uint64_t
Appliance::metastateBytes() const
{
    return sieve_ ? sieve_->metastateBytes() : selector_->metastateBytes();
}

void
Appliance::checkInvariants() const
{
    SIEVE_CHECK(sieve_.has_value() != (selector_ != nullptr),
                "appliance must have exactly one of sieve / selector");
    cache_.checkInvariants();

    // Every in-flight allocation is tracked in both structures, and
    // the pending guard keeps the queue duplicate-free.
    SIEVE_CHECK(pending.size() == alloc_queue.size(),
                "%zu pending blocks vs %zu queued allocations",
                pending.size(), alloc_queue.size());
    SIEVE_CHECK(std::is_heap(alloc_queue.begin(), alloc_queue.end(),
                             std::greater<PendingAlloc>()),
                "allocation queue lost its heap ordering");
    pending.checkInvariants();

    for (const DailyReport &rep : reports) {
        SIEVE_CHECK(rep.hits <= rep.accesses,
                    "daily hits %llu exceed accesses %llu",
                    static_cast<unsigned long long>(rep.hits),
                    static_cast<unsigned long long>(rep.accesses));
        SIEVE_CHECK(rep.read_accesses <= rep.accesses);
        SIEVE_CHECK(rep.read_hits + rep.write_hits == rep.hits,
                    "read hits + write hits must equal total hits");
        SIEVE_CHECK(rep.read_hits <= rep.read_accesses);
        SIEVE_CHECK(rep.ssd_read_ios <= rep.read_hits);
        SIEVE_CHECK(rep.ssd_write_ios <= rep.write_hits);
        SIEVE_CHECK(rep.ssd_alloc_ios <= rep.allocation_write_blocks);
        // Storage observation never exceeds what the model charged
        // that day (staged-but-undrained ops account for the slack).
        SIEVE_CHECK(rep.storage_read_ios + rep.storage_read_errors <=
                        rep.ssd_read_ios,
                    "measured reads exceed model-charged reads");
        SIEVE_CHECK(rep.storage_write_ios + rep.storage_write_errors <=
                        rep.ssd_write_ios + rep.ssd_alloc_ios +
                            rep.batch_moved_blocks,
                    "measured writes exceed model-charged writes");
    }

    if (backend_) {
        backend_->checkInvariants();
        // Cross-layer audit: every model-charged device I/O is staged
        // exactly once, so model counts equal the backend's completed
        // plus failed ops plus whatever is still staged. Reads are
        // exact; writes carry the batch-move slack (page-coalesced
        // batch installs emit at most one write per moved block).
        const DailyReport t = sumReports(reports);
        const storage::BackendStats &st = backend_->stats();
        const uint64_t meas_r =
            st.read_ops + st.read_errors + n_stage_reads_;
        SIEVE_CHECK(meas_r == t.ssd_read_ios,
                    "backend observed %llu reads but the model "
                    "charged %llu",
                    static_cast<unsigned long long>(meas_r),
                    static_cast<unsigned long long>(t.ssd_read_ios));
        const uint64_t meas_w =
            st.write_ops + st.write_errors + n_stage_writes_;
        const uint64_t model_w = t.ssd_write_ios + t.ssd_alloc_ios;
        SIEVE_CHECK(meas_w >= model_w &&
                        meas_w <= model_w + t.batch_moved_blocks,
                    "backend observed %llu writes outside the model "
                    "envelope [%llu, %llu]",
                    static_cast<unsigned long long>(meas_w),
                    static_cast<unsigned long long>(model_w),
                    static_cast<unsigned long long>(
                        model_w + t.batch_moved_blocks));
    }

    if (sieve_)
        sieve_->checkInvariants();
    if (selector_)
        selector_->checkInvariants();
}

} // namespace core
} // namespace sievestore
