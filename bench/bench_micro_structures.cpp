/**
 * @file
 * Microbenchmarks (google-benchmark) for the data structures on the
 * appliance's critical path: IMCT/MCT updates, the two-tier sieve's
 * per-miss cost, block-cache operations, and workload generation.
 *
 * The paper's feasibility argument is that "request processing is
 * entirely in memory" and cheap; these benchmarks quantify it.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <span>
#include <vector>
#include <string>
#include <unistd.h>

#include "analysis/access_counter.hpp"
#include "analysis/access_log.hpp"
#include "cache/block_cache.hpp"
#include "cache/ghost_cache.hpp"
#include "cache/replacement.hpp"
#include "core/appliance.hpp"
#include "core/auto_tune.hpp"
#include "core/imct.hpp"
#include "core/mct.hpp"
#include "core/sievestore_c.hpp"
#include "trace/synthetic.hpp"
#include "util/flat_index.hpp"
#include "util/random.hpp"
#include "util/sim_time.hpp"

using namespace sievestore;

namespace {

void
BM_ImctRecordMiss(benchmark::State &state)
{
    core::Imct imct(static_cast<size_t>(state.range(0)),
                    core::WindowSpec::paperDefault());
    util::Rng rng(1);
    uint64_t t = 0;
    for (auto _ : state) {
        t += 1000;
        benchmark::DoNotOptimize(imct.recordMiss(rng.next(), t));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ImctRecordMiss)->Arg(1 << 16)->Arg(1 << 22);

void
BM_MctAdmitRecordRemove(benchmark::State &state)
{
    core::Mct mct(core::WindowSpec::paperDefault());
    util::Rng rng(2);
    for (auto _ : state) {
        const trace::BlockId b = rng.nextBelow(1 << 20);
        if (!mct.contains(b))
            mct.admit(b, 0);
        if (mct.recordMiss(b, 0) >= 4)
            mct.remove(b);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MctAdmitRecordRemove);

void
BM_SieveStoreCOnMiss(benchmark::State &state)
{
    core::SieveStoreCConfig cfg;
    cfg.imct_slots = 1 << 20;
    core::SieveStoreCPolicy sieve(cfg);
    util::Rng rng(3);
    trace::BlockAccess a;
    a.op = trace::Op::Read;
    uint64_t t = 0;
    for (auto _ : state) {
        // Zipf-ish mix: a small hot set plus a cold tail.
        a.block = rng.nextBool(0.3) ? rng.nextBelow(1000)
                                    : rng.next();
        t += 500;
        a.time = t;
        benchmark::DoNotOptimize(sieve.onMiss(a));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SieveStoreCOnMiss);

/**
 * The cache rows below time the flat block-index engine, one row per
 * eviction kind, and report bytes per resident block. Their
 * `flat/<kind>` labels match the scaling rows' (which
 * `bench_compare.py --scaling` reads) and the committed baselines.
 */
void
setCacheLabel(benchmark::State &state, const cache::BlockCache &cache)
{
    state.SetLabel(std::string("flat/") + cache.policyName());
    state.counters["bytes_per_block"] = benchmark::Counter(
        static_cast<double>(cache.memoryBytes()) /
        static_cast<double>(std::max<uint64_t>(1, cache.size())));
}

void
BM_BlockCacheAccessHit(benchmark::State &state)
{
    const auto kind = static_cast<cache::EvictionKind>(state.range(0));
    cache::BlockCache cache(1 << 16, cache::EvictionSpec{kind, 1});
    for (trace::BlockId b = 0; b < (1 << 16); ++b)
        cache.insert(b);
    util::Rng rng(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.nextBelow(1 << 16)));
    state.SetItemsProcessed(state.iterations());
    setCacheLabel(state, cache);
}
BENCHMARK(BM_BlockCacheAccessHit)->ArgName("kind")->DenseRange(0, 7);

void
BM_BlockCacheInsertEvict(benchmark::State &state)
{
    const auto kind = static_cast<cache::EvictionKind>(state.range(0));
    cache::BlockCache cache(1 << 14, cache::EvictionSpec{kind, 1});
    util::Rng rng(5);
    trace::BlockId next = 0;
    for (auto _ : state) {
        if (!cache.access(next))
            cache.insert(next);
        ++next;
    }
    state.SetItemsProcessed(state.iterations());
    setCacheLabel(state, cache);
}
BENCHMARK(BM_BlockCacheInsertEvict)->ArgName("kind")->DenseRange(0, 7);

void
BM_BlockCacheMixedHotCold(benchmark::State &state)
{
    // The appliance's actual access mix: mostly hits in a hot set,
    // with a cold tail forcing insert+evict churn.
    const auto kind = static_cast<cache::EvictionKind>(state.range(0));
    cache::BlockCache cache(1 << 14, cache::EvictionSpec{kind, 1});
    util::Rng rng(6);
    for (auto _ : state) {
        const trace::BlockId b = rng.nextBool(0.9)
                                     ? rng.nextBelow(1 << 13)
                                     : rng.next();
        if (!cache.access(b))
            cache.insert(b);
    }
    state.SetItemsProcessed(state.iterations());
    setCacheLabel(state, cache);
}
BENCHMARK(BM_BlockCacheMixedHotCold)->ArgName("kind")->DenseRange(0, 7);

/**
 * Capacity scaling: MixedHotCold's 90/10 mix (hits on a hot half of
 * the capacity, cold misses that insert and evict) on a pre-filled
 * flat cache of 2^14, 2^18 and 2^22 blocks, every eviction kind.
 * Per-op cost grows with the memory hierarchy for every kind; a kind
 * whose eviction scales with capacity grows far faster, which
 * `scripts/bench_compare.py --scaling` gates against LRU's growth in
 * the same run. A fixed iteration count keeps the 2^22 pre-fill to
 * one per run.
 */
void
BM_BlockCacheScaling(benchmark::State &state)
{
    const auto kind = static_cast<cache::EvictionKind>(state.range(0));
    const auto capacity = static_cast<uint64_t>(state.range(1));
    cache::BlockCache cache(capacity, cache::EvictionSpec{kind, 1});
    for (trace::BlockId b = 0; b < capacity; ++b)
        cache.insert(b);
    util::Rng rng(6);
    for (auto _ : state) {
        const trace::BlockId b = rng.nextBool(0.9)
                                     ? rng.nextBelow(capacity / 2)
                                     : rng.next();
        if (!cache.access(b))
            benchmark::DoNotOptimize(cache.insert(b));
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel(std::string("flat/") + cache.policyName());
}
BENCHMARK(BM_BlockCacheScaling)
    ->ArgNames({"kind", "capacity"})
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7}, {1 << 14, 1 << 18, 1 << 22}})
    ->Iterations(1 << 20);

/**
 * The policy fabric's shared history substrate: contains + insert on
 * a ghost cache running at budget, where every new key evicts the
 * oldest. ARC's B1/B2 directory probes and the adaptive sieve's
 * shadow capture test are exactly this loop, so its cost bounds the
 * fabric's per-access history overhead. Probes mix tracked keys
 * (front-refresh path) with fresh ones (insert + evict-oldest path).
 */
void
BM_GhostCacheLookup(benchmark::State &state)
{
    const auto budget = static_cast<uint64_t>(state.range(0));
    cache::GhostCache ghost(budget);
    for (uint64_t b = 0; b < budget; ++b)
        ghost.insert(b);
    util::Rng rng(7);
    uint64_t tracked = 0;
    for (auto _ : state) {
        const trace::BlockId b = rng.nextBool(0.5)
                                     ? rng.nextBelow(budget)
                                     : rng.next();
        tracked += ghost.contains(b) ? 1u : 0u;
        ghost.insert(b);
    }
    benchmark::DoNotOptimize(tracked);
    state.SetItemsProcessed(state.iterations());
    state.counters["bytes_per_key"] = benchmark::Counter(
        static_cast<double>(ghost.memoryBytes()) /
        static_cast<double>(std::max<uint64_t>(1, ghost.size())));
}
BENCHMARK(BM_GhostCacheLookup)
    ->ArgName("budget")
    ->Arg(1 << 12)
    ->Arg(1 << 18);

/**
 * The online adaptive sieve per block access, at bench/e2e's
 * `adaptive` workload sizes (shadow IMCT 13 732 slots, ghost budget
 * 2^15): one synthetic day at 1/4096 scale, expanded to block
 * accesses and fed as hits, so only the shadow bank's observe is
 * timed (the production sieve ignores hits). One iteration replays
 * the whole day and closes it, with time advancing a day per
 * iteration; a warm-up day fills the ghosts and MCTs first. Whole
 * days and a fixed iteration count keep the bank's state, and so the
 * per-access cost, the same from run to run.
 */
void
BM_AdaptiveObserve(benchmark::State &state)
{
    trace::SyntheticConfig scfg;
    scfg.scale = 1.0 / 4096.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), scfg);
    std::vector<trace::BlockAccess> day;
    for (const trace::Request &r : gen.generateDay(3)) {
        trace::BlockAccess a;
        a.time = r.time % util::kUsPerDay;
        a.completion = a.time;
        a.server = r.server;
        a.op = r.op;
        for (uint32_t i = 0; i < r.length_blocks; ++i) {
            a.block = trace::makeBlockId(r.volume, r.offset_blocks + i);
            day.push_back(a);
        }
    }

    core::AdaptiveSieveConfig cfg;
    cfg.base.imct_slots = 1 << 16;
    cfg.imct_slots = 13732;
    cfg.ghost_budget = 1 << 15;
    core::AdaptiveSievePolicy policy(cfg);
    int lap = 0;
    auto replayDay = [&] {
        const util::TimeUs offset =
            static_cast<util::TimeUs>(lap) * util::kUsPerDay;
        for (trace::BlockAccess a : day) {
            a.time += offset;
            policy.onHit(a);
        }
        policy.onDayClose(lap++);
    };
    replayDay();
    for (auto _ : state)
        replayDay();
    benchmark::DoNotOptimize(policy.switches());
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(day.size()));
    state.counters["ns_per_access"] = benchmark::Counter(
        static_cast<double>(day.size()),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.counters["shadow_rows"] =
        static_cast<double>(policy.shadowRows());
    state.counters["shadow_pages"] =
        static_cast<double>(policy.shadowPages());
}
BENCHMARK(BM_AdaptiveObserve)->Unit(benchmark::kMillisecond)->Iterations(3);

/**
 * SieveStore-D's in-memory epoch counter per block access, at
 * bench/e2e's `sieved-epoch` scale (1/512): one synthetic day's
 * requests, each walked in probe-chunk-sized runs of block ids as the
 * appliance hands them over, through observeBatch (batched = 1) or
 * one observe() per block (batched = 0). One iteration counts the
 * whole day, reduces it at the paper's threshold of 10 and clears the
 * counter, as an epoch boundary does; a warm-up day grows the table
 * first, so every timed day runs on a table sized for it.
 */
void
BM_AccessCounterObserve(benchmark::State &state)
{
    const bool batched = state.range(0) != 0;
    trace::SyntheticConfig scfg;
    scfg.scale = 1.0 / 512.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(
        trace::EnsembleConfig::paperEnsemble(), scfg);
    const std::vector<trace::Request> day = gen.generateDay(3);
    uint64_t accesses = 0;
    for (const trace::Request &r : day)
        accesses += r.length_blocks;

    analysis::AccessCounter counter;
    size_t selected = 0;
    auto countDay = [&] {
        constexpr size_t kChunk = cache::BlockCache::kProbeBatch;
        trace::BlockId keys[kChunk];
        for (const trace::Request &r : day) {
            for (uint32_t base = 0; base < r.length_blocks;
                 base += static_cast<uint32_t>(kChunk)) {
                const auto n = static_cast<uint32_t>(
                    std::min<size_t>(kChunk, r.length_blocks - base));
                for (uint32_t i = 0; i < n; ++i)
                    keys[i] = r.blockAt(base + i);
                if (batched) {
                    counter.observeBatch(
                        std::span<const trace::BlockId>(keys, n));
                } else {
                    for (uint32_t i = 0; i < n; ++i)
                        counter.observe(keys[i]);
                }
            }
        }
        selected = counter.countsAtLeast(10).size();
        counter.clear();
    };
    countDay();
    for (auto _ : state) {
        countDay();
        benchmark::DoNotOptimize(selected);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(accesses));
    state.counters["ns_per_access"] = benchmark::Counter(
        static_cast<double>(accesses),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
    state.counters["metastate_mb"] =
        static_cast<double>(counter.memoryBytes()) / 1e6;
}
BENCHMARK(BM_AccessCounterObserve)
    ->ArgName("batched")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

void
BM_AccessLogAppendAndReduce(benchmark::State &state)
{
    // The SieveStore-D substrate: disk-backed <addr,1> logging with
    // periodic compaction, then the epoch-end threshold reduction.
    const auto dir = std::filesystem::temp_directory_path() /
                     ("ss_bench_log_" + std::to_string(::getpid()));
    analysis::AccessLogConfig cfg;
    cfg.partitions = 8;
    analysis::AccessLog log(dir.string(), cfg);
    util::Rng rng(9);
    int64_t logged = 0;
    for (auto _ : state) {
        for (int i = 0; i < 100000; ++i)
            log.log(rng.nextBool(0.3) ? rng.nextBelow(1000)
                                      : rng.next());
        benchmark::DoNotOptimize(log.reduce(10));
        log.beginEpoch();
        logged += 100000;
    }
    state.SetItemsProcessed(logged);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
}
BENCHMARK(BM_AccessLogAppendAndReduce)->Unit(benchmark::kMillisecond);

void
BM_ZipfSample(benchmark::State &state)
{
    util::ZipfSampler zipf(1000000, 1.0);
    util::Rng rng(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void
BM_SyntheticDayGeneration(benchmark::State &state)
{
    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    trace::SyntheticConfig cfg;
    cfg.scale = 1.0 / 65536.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(ensemble, cfg);
    uint64_t requests = 0;
    for (auto _ : state) {
        const auto reqs = gen.generateDay(3);
        requests += reqs.size();
        benchmark::DoNotOptimize(reqs.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(requests));
}
BENCHMARK(BM_SyntheticDayGeneration);

/**
 * The batched FlatIndex lookup kernel against the scalar probe loop
 * it amortizes, at two table sizes: one that fits the cache hierarchy
 * and one that misses it. The kernel's win is hash-ahead plus
 * software prefetch hiding the home-slot miss latency, so the
 * out-of-cache table is where the gap shows; the in-cache table
 * bounds the kernel's bookkeeping overhead. The dispatch label
 * records whether the AVX2 dib scan was active.
 */
void
BM_FlatIndexFindBatch(benchmark::State &state)
{
    const bool batched = state.range(0) != 0;
    util::FlatIndex<uint64_t> idx;
    idx.reserve(static_cast<size_t>(state.range(1)));
    util::Rng rng(6);
    std::vector<uint64_t> present;
    while (idx.hasCapacityFor(1)) {
        const uint64_t key = rng.next();
        *idx.findOrInsert(key).first = key;
        present.push_back(key);
    }
    // Probe stream: uniformly random residents plus a 25% absent
    // tail, so both hit and chain-termination paths are measured.
    std::vector<uint64_t> probes(1 << 16);
    for (uint64_t &p : probes)
        p = rng.nextBool(0.25) ? rng.next()
                               : present[rng.nextBelow(present.size())];

    constexpr size_t kChunk = util::FlatIndex<uint64_t>::kBatchChunk;
    uint64_t *out[kChunk];
    uint64_t found = 0;
    for (auto _ : state) {
        for (size_t i = 0; i < probes.size(); i += kChunk) {
            const size_t n = std::min(kChunk, probes.size() - i);
            if (batched) {
                found += idx.findBatch(
                    std::span<const uint64_t>(probes.data() + i, n),
                    std::span<uint64_t *>(out, n));
            } else {
                for (size_t j = 0; j < n; ++j)
                    found += idx.find(probes[i + j]) != nullptr;
            }
        }
    }
    benchmark::DoNotOptimize(found);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(probes.size()));
    state.SetLabel(std::string(batched ? "batched/" : "scalar/") +
                   (util::batchSimdEnabled() ? "avx2" : "no-simd"));
}
BENCHMARK(BM_FlatIndexFindBatch)
    ->ArgNames({"batched", "slots"})
    ->ArgsProduct({{0, 1}, {1 << 14, 1 << 22}});

/**
 * The appliance's batched entry point at varying batch sizes: how
 * much per-request overhead (virtual decode, day detection, guard
 * arming) the batch refactor amortizes. One calendar day of the
 * synthetic workload replays repeatedly through a flat SieveStore-C
 * appliance; batch=1 reproduces the per-request path.
 */
void
BM_ApplianceProcessBatch(benchmark::State &state)
{
    const size_t batch = static_cast<size_t>(state.range(0));
    const auto ensemble = trace::EnsembleConfig::paperEnsemble();
    trace::SyntheticConfig cfg;
    cfg.scale = 1.0 / 65536.0;
    auto gen = trace::SyntheticEnsembleGenerator::paper(ensemble, cfg);
    const auto reqs = gen.generateDay(3); // one day: no epoch churn

    core::ApplianceConfig ac;
    ac.cache_blocks = 1 << 14;
    ac.track_occupancy = false;
    ac.sieve.kind = core::SieveKind::SieveStoreC;
    ac.sieve.sieve_c.imct_slots = 1 << 16;
    core::Appliance app(ac);

    uint64_t requests = 0;
    for (auto _ : state) {
        size_t i = 0;
        while (i < reqs.size()) {
            const size_t n = std::min(batch, reqs.size() - i);
            app.processBatch(std::span<const trace::Request>(
                reqs.data() + i, n));
            i += n;
        }
        requests += reqs.size();
    }
    state.SetItemsProcessed(static_cast<int64_t>(requests));
}
BENCHMARK(BM_ApplianceProcessBatch)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256);

} // namespace

BENCHMARK_MAIN();
