/**
 * @file
 * Microbenchmarks (google-benchmark) for the storage backends: batched
 * read/write submit cost through the AnalyticBackend (the model echo,
 * which bounds the staging overhead every simulation now pays) and the
 * FileBackend, with every op on the calling thread (the Sync rows,
 * workers = 0) and through its worker pool (the Pool rows).
 *
 * Emitted as BENCH_storage.json by CI's perf-smoke job and compared
 * with scripts/bench_compare.py --allow-missing-baseline.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "ssd/ssd_model.hpp"
#include "storage/analytic_backend.hpp"
#include "storage/backend.hpp"
#include "storage/file_backend.hpp"
#include "trace/block.hpp"

using namespace sievestore;

namespace {

constexpr size_t kBatch = 256;
constexpr uint64_t kPages = 4096;

std::vector<storage::StorageOp>
makeOps(size_t n)
{
    std::vector<storage::StorageOp> ops(n);
    for (size_t i = 0; i < n; ++i) {
        const uint64_t page = (i * 7919) % kPages;
        ops[i] = storage::StorageOp{
            static_cast<util::TimeUs>(i),
            trace::makeBlockId(1, page * trace::kBlocksPerPage)};
    }
    return ops;
}

void
runBatches(benchmark::State &state, storage::Backend &backend,
           bool writes)
{
    const std::vector<storage::StorageOp> ops = makeOps(kBatch);
    std::array<uint32_t, kBatch> lat{};
    for (auto _ : state) {
        if (writes)
            backend.writeBlocks(ops, lat);
        else
            backend.readBlocks(ops, lat);
        benchmark::DoNotOptimize(lat[0]);
    }
    backend.flush();
    backend.checkInvariants();
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kBatch));
}

void
BM_AnalyticRead(benchmark::State &state)
{
    storage::AnalyticBackend backend{ssd::SsdModel::intelX25E()};
    runBatches(state, backend, false);
}
BENCHMARK(BM_AnalyticRead);

void
BM_AnalyticWrite(benchmark::State &state)
{
    storage::AnalyticBackend backend{ssd::SsdModel::intelX25E()};
    runBatches(state, backend, true);
}
BENCHMARK(BM_AnalyticWrite);

storage::FileBackendConfig
fileConfig(unsigned workers)
{
    storage::FileBackendConfig cfg;
    cfg.capacity_bytes = kPages * trace::kPageBytes;
    cfg.workers = workers;
    return cfg;
}

void
BM_FileSyncRead(benchmark::State &state)
{
    storage::FileBackend backend(fileConfig(0));
    runBatches(state, backend, false);
}
BENCHMARK(BM_FileSyncRead);

void
BM_FileSyncWrite(benchmark::State &state)
{
    storage::FileBackend backend(fileConfig(0));
    runBatches(state, backend, true);
}
BENCHMARK(BM_FileSyncWrite);

void
BM_FilePoolRead(benchmark::State &state)
{
    storage::FileBackend backend(
        fileConfig(static_cast<unsigned>(state.range(0))));
    runBatches(state, backend, false);
}
BENCHMARK(BM_FilePoolRead)->Arg(2)->Arg(4);

void
BM_FilePoolWrite(benchmark::State &state)
{
    storage::FileBackend backend(
        fileConfig(static_cast<unsigned>(state.range(0))));
    runBatches(state, backend, true);
}
BENCHMARK(BM_FilePoolWrite)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
