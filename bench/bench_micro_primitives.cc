/**
 * @file
 * google-benchmark microbenchmarks for the hot primitives of the
 * simulator: (72,64) SECDED encode/decode, line ECC, jhash2, the
 * ECC page key, page comparison, red-black tree search, and each page
 * and tag kernel of sim/simd.hh (the baseline any faster kernel has
 * to beat).
 */

#include <array>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "ecc/ecc_hash_key.hh"
#include "ecc/jhash.hh"
#include "ksm/content_tree.hh"
#include "sim/rng.hh"
#include "sim/simd.hh"

namespace pageforge
{
namespace
{

std::array<std::uint8_t, pageSize>
randomPage(std::uint64_t seed)
{
    Rng rng(seed);
    std::array<std::uint8_t, pageSize> page;
    for (auto &byte : page)
        byte = static_cast<std::uint8_t>(rng.next());
    return page;
}

void
BM_Hamming7264Encode(benchmark::State &state)
{
    Rng rng(1);
    std::uint64_t word = rng.next();
    for (auto _ : state) {
        benchmark::DoNotOptimize(Hamming7264::encode(word));
        word += 0x9e3779b97f4a7c15ULL;
    }
}
BENCHMARK(BM_Hamming7264Encode);

void
BM_Hamming7264Decode(benchmark::State &state)
{
    Rng rng(2);
    std::uint64_t word = rng.next();
    std::uint8_t check = Hamming7264::encode(word);
    for (auto _ : state)
        benchmark::DoNotOptimize(Hamming7264::decode(word, check));
}
BENCHMARK(BM_Hamming7264Decode);

void
BM_LineEccEncode(benchmark::State &state)
{
    auto page = randomPage(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(LineEcc::encode(page.data()));
}
BENCHMARK(BM_LineEccEncode);

void
BM_Jhash1KB(benchmark::State &state)
{
    auto page = randomPage(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(ksmPageHash(page.data()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Jhash1KB);

void
BM_EccPageHash(benchmark::State &state)
{
    auto page = randomPage(5);
    EccOffsets offsets = EccOffsets::defaults();
    for (auto _ : state)
        benchmark::DoNotOptimize(eccPageHash(page.data(), offsets));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_EccPageHash);

void
BM_ComparePagesEqual(benchmark::State &state)
{
    auto a = randomPage(6);
    auto b = a;
    for (auto _ : state)
        benchmark::DoNotOptimize(comparePages(a.data(), b.data()));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * pageSize);
}
BENCHMARK(BM_ComparePagesEqual);

void
BM_ComparePagesEarlyDivergence(benchmark::State &state)
{
    auto a = randomPage(7);
    auto b = randomPage(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(comparePages(a.data(), b.data()));
}
BENCHMARK(BM_ComparePagesEarlyDivergence);

// ---- sim/simd.hh kernels ----------------------------------------------

/** firstDiff over a page whose copy differs at byte Arg (pageSize = equal). */
void
BM_FirstDiff(benchmark::State &state)
{
    auto a = randomPage(9);
    auto b = a;
    const auto diff_at = static_cast<std::uint32_t>(state.range(0));
    if (diff_at < pageSize)
        b[diff_at] ^= 0x01;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            simd::firstDiff(a.data(), b.data(), 0, pageSize));
}
BENCHMARK(BM_FirstDiff)
    ->ArgName("diff_at")
    ->Arg(pageSize)
    ->Arg(2000)
    ->Arg(3);

/** rangeEqual over two equal ranges of Arg bytes (a page or a line). */
void
BM_RangeEqual(benchmark::State &state)
{
    auto a = randomPage(10);
    auto b = a;
    const auto len = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(simd::rangeEqual(a.data(), b.data(), len));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * len);
}
BENCHMARK(BM_RangeEqual)->ArgName("len")->Arg(pageSize)->Arg(lineSize);

void
BM_AllZeroPage(benchmark::State &state)
{
    std::array<std::uint8_t, pageSize> page{};
    for (auto _ : state) {
        benchmark::DoNotOptimize(page.data());
        benchmark::DoNotOptimize(simd::allZero(page.data(), pageSize));
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * pageSize);
}
BENCHMARK(BM_AllZeroPage);

void
BM_FingerprintBlocksPage(benchmark::State &state)
{
    auto page = randomPage(11);
    std::uint64_t h[4] = {1, 2, 3, 4};
    for (auto _ : state) {
        simd::fingerprintBlocks(page.data(), pageSize / 32, h);
        benchmark::DoNotOptimize(h);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * pageSize);
}
BENCHMARK(BM_FingerprintBlocksPage);

/**
 * findTagWay over a full Arg-way set (L1/L2: 8, L3: 20). The probes
 * cycle through every way's line and one absent line, so hits at each
 * position and a full-set miss are all in the mix.
 */
void
BM_FindTagWay(benchmark::State &state)
{
    const auto ways = static_cast<std::uint32_t>(state.range(0));
    std::vector<std::uint64_t> tags(ways);
    std::vector<std::uint64_t> probes;
    for (std::uint32_t w = 0; w < ways; ++w) {
        std::uint64_t line = (w + 1) * 4096ULL * lineSize;
        tags[w] = line | 1; // a valid (nonzero) MESI state
        probes.push_back(line);
    }
    probes.push_back((ways + 1) * 4096ULL * lineSize);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simd::findTagWay(tags.data(), ways, probes[next]));
        next = next + 1 == probes.size() ? 0 : next + 1;
    }
}
BENCHMARK(BM_FindTagWay)->ArgName("ways")->Arg(8)->Arg(20);

/** Accessor over a preallocated pool for the tree benchmark. */
class PoolAccessor : public PageAccessor
{
  public:
    PageHandle
    add(std::uint64_t seed)
    {
        _pages.push_back(
            std::make_unique<std::array<std::uint8_t, pageSize>>(
                randomPage(seed)));
        return _pages.size() - 1;
    }

    const std::uint8_t *
    resolve(PageHandle handle) override
    {
        return _pages[handle]->data();
    }

  private:
    std::vector<std::unique_ptr<std::array<std::uint8_t, pageSize>>>
        _pages;
};

void
BM_ContentTreeSearch(benchmark::State &state)
{
    PoolAccessor pool;
    ContentTree tree(pool);
    const std::int64_t n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i)
        tree.insert(pool.add(1000 + static_cast<std::uint64_t>(i)));

    PageHandle probe = pool.add(500);
    const std::uint8_t *probe_data = pool.resolve(probe);
    for (auto _ : state)
        benchmark::DoNotOptimize(tree.search(probe_data));
}
BENCHMARK(BM_ContentTreeSearch)->Arg(64)->Arg(1024)->Arg(8192);

} // namespace
} // namespace pageforge

BENCHMARK_MAIN();
