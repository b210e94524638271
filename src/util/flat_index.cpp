/**
 * @file
 * Runtime dispatch state for FlatIndex::findBatch's probe loop.
 *
 * The AVX2 dib scan is compiled unconditionally (function-level target
 * attribute), so the choice between it and the scalar loop is a plain
 * boolean resolved once per findBatch call: CPU support, clamped by
 * the SIEVE_BATCH_SIMD environment variable and setBatchSimd(). Both
 * paths return bit-identical results (proven by the batchkernel
 * differential suites); the toggle exists for CI's forced-on/off
 * sanitizer runs and for benchmarking the scalar floor.
 */

#include "util/flat_index.hpp"

#include <cstdlib>

namespace sievestore {
namespace util {

namespace {

bool
cpuHasAvx2()
{
#if SIEVE_FLAT_INDEX_SIMD
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

bool
initialSimd()
{
    if (!cpuHasAvx2())
        return false;
    // SIEVE_BATCH_SIMD=0 forces the scalar probe loop from process
    // start (CI's sanitizer matrix runs the batchkernel suites both
    // ways); any other value — or none — takes the AVX2 path when the
    // CPU has it.
    // sieve-lint: allow(env-knob) tests the non-AVX2 loop on any host
    const char *env = std::getenv("SIEVE_BATCH_SIMD");
    return env == nullptr || env[0] != '0';
}

bool g_simd = initialSimd();

} // namespace

bool
batchSimdSupported()
{
    return cpuHasAvx2();
}

bool
batchSimdEnabled()
{
    return g_simd;
}

bool
setBatchSimd(bool enabled)
{
    g_simd = enabled && cpuHasAvx2();
    return g_simd;
}

} // namespace util
} // namespace sievestore
