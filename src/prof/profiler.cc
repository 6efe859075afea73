#include "prof/profiler.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>

namespace pageforge
{
namespace prof
{

namespace detail
{
std::atomic<bool> g_enabled{false};
} // namespace detail

namespace
{

/**
 * Latency samples bucket by bit-width of the nanosecond value, so
 * bucket i covers [2^(i-1), 2^i). 64 buckets span the full uint64
 * range; bucket 0 is the ns==0 case.
 */
constexpr unsigned numBuckets = 64;

struct SiteSlot
{
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t minNs = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxNs = 0;
    std::uint64_t buckets[numBuckets] = {};
};

/**
 * One buffer per thread, single-writer. Registered under g_mutex on
 * first use and kept alive for the process lifetime so snapshot() can
 * read buffers of threads that have since exited (campaign workers
 * are joined before any snapshot, so the reads are race-free).
 */
struct ThreadBuf
{
    SiteSlot slots[numSites];
};

std::mutex g_mutex;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;
std::atomic<std::uint64_t> g_bufCount{0};

thread_local ThreadBuf *t_buf = nullptr;

ThreadBuf *
myBuf()
{
    if (!t_buf) {
        auto buf = std::make_unique<ThreadBuf>();
        std::lock_guard<std::mutex> lock(g_mutex);
        g_bufs.push_back(std::move(buf));
        t_buf = g_bufs.back().get();
        g_bufCount.fetch_add(1, std::memory_order_relaxed);
    }
    return t_buf;
}

unsigned
bucketOf(std::uint64_t ns)
{
    return static_cast<unsigned>(std::bit_width(ns));
}

/**
 * Rank-q sample estimated from the merged log2 histogram: find the
 * bucket holding the rank, interpolate linearly inside its [lo, hi)
 * range, clamp to the exact observed min/max.
 */
std::uint64_t
quantile(const SiteSlot &slot, double q)
{
    if (slot.count == 0)
        return 0;
    const double rank = q * static_cast<double>(slot.count - 1);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < numBuckets; ++i) {
        if (slot.buckets[i] == 0)
            continue;
        const std::uint64_t in_bucket = slot.buckets[i];
        if (rank < static_cast<double>(seen + in_bucket)) {
            const std::uint64_t lo = i == 0 ? 0 : std::uint64_t{1}
                                                      << (i - 1);
            const std::uint64_t hi = i == 0 ? 1 : std::uint64_t{1} << i;
            const double frac =
                (rank - static_cast<double>(seen)) /
                static_cast<double>(in_bucket);
            auto v = static_cast<std::uint64_t>(
                static_cast<double>(lo) +
                frac * static_cast<double>(hi - lo));
            return std::clamp(v, slot.minNs, slot.maxNs);
        }
        seen += in_bucket;
    }
    return slot.maxNs;
}

} // namespace

const char *
siteName(Site site)
{
    switch (site) {
      case Site::EventDispatch: return "event-dispatch";
      case Site::ContentTreeSearch: return "content-tree-search";
      case Site::SimdCompare: return "simd-compare";
      case Site::EccCompute: return "ecc-compute";
      case Site::ScanTableWalk: return "scan-table-walk";
      case Site::MetricsSample: return "metrics-sample";
    }
    return "?";
}

TraceComponent
siteComponent(Site site)
{
    switch (site) {
      case Site::EventDispatch: return TraceComponent::Sim;
      case Site::ContentTreeSearch: return TraceComponent::Ksm;
      case Site::SimdCompare: return TraceComponent::Sim;
      case Site::EccCompute: return TraceComponent::DramBw;
      case Site::ScanTableWalk: return TraceComponent::ScanTable;
      case Site::MetricsSample: return TraceComponent::Sim;
    }
    return TraceComponent::Sim;
}

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
recordNs(Site site, std::uint64_t ns)
{
    SiteSlot &slot = myBuf()->slots[static_cast<unsigned>(site)];
    ++slot.count;
    slot.totalNs += ns;
    slot.minNs = std::min(slot.minNs, ns);
    slot.maxNs = std::max(slot.maxNs, ns);
    ++slot.buckets[bucketOf(ns)];
}

std::uint64_t
threadBuffers()
{
    return g_bufCount.load(std::memory_order_relaxed);
}

std::vector<SiteStats>
snapshot()
{
    SiteSlot merged[numSites];
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        for (const auto &buf : g_bufs) {
            for (unsigned s = 0; s < numSites; ++s) {
                const SiteSlot &src = buf->slots[s];
                if (src.count == 0)
                    continue;
                SiteSlot &dst = merged[s];
                dst.count += src.count;
                dst.totalNs += src.totalNs;
                dst.minNs = std::min(dst.minNs, src.minNs);
                dst.maxNs = std::max(dst.maxNs, src.maxNs);
                for (unsigned b = 0; b < numBuckets; ++b)
                    dst.buckets[b] += src.buckets[b];
            }
        }
    }

    std::vector<SiteStats> out;
    for (unsigned s = 0; s < numSites; ++s) {
        const SiteSlot &slot = merged[s];
        if (slot.count == 0)
            continue;
        const auto site = static_cast<Site>(s);
        SiteStats stats;
        stats.site = site;
        stats.name = siteName(site);
        stats.comp = siteComponent(site);
        stats.count = slot.count;
        stats.totalNs = slot.totalNs;
        stats.minNs = slot.minNs;
        stats.maxNs = slot.maxNs;
        stats.p50Ns = quantile(slot, 0.50);
        stats.p95Ns = quantile(slot, 0.95);
        out.push_back(stats);
    }
    return out;
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    for (auto &buf : g_bufs)
        for (auto &slot : buf->slots)
            slot = SiteSlot{};
}

void
writeTable(std::ostream &os)
{
    auto sites = snapshot();
    std::sort(sites.begin(), sites.end(),
              [](const SiteStats &a, const SiteStats &b) {
                  return a.totalNs > b.totalNs;
              });

    char line[160];
    std::snprintf(line, sizeof(line), "%-20s %-10s %12s %12s %10s %10s %10s\n",
                  "site", "component", "count", "total_ms", "p50_ns",
                  "p95_ns", "max_ns");
    os << line;
    for (const SiteStats &s : sites) {
        std::snprintf(line, sizeof(line),
                      "%-20s %-10s %12llu %12.3f %10llu %10llu %10llu\n",
                      s.name, traceComponentName(s.comp),
                      static_cast<unsigned long long>(s.count),
                      static_cast<double>(s.totalNs) / 1e6,
                      static_cast<unsigned long long>(s.p50Ns),
                      static_cast<unsigned long long>(s.p95Ns),
                      static_cast<unsigned long long>(s.maxNs));
        os << line;
    }
    if (sites.empty())
        os << "(no profile samples recorded)\n";
}

void
writeJson(std::ostream &os)
{
    os << "{\"sites\":[";
    auto sites = snapshot();
    bool first = true;
    for (const SiteStats &s : sites) {
        if (!first)
            os << ",";
        first = false;
        os << "{\"site\":\"" << s.name << "\",\"component\":\""
           << traceComponentName(s.comp) << "\",\"count\":" << s.count
           << ",\"total_ns\":" << s.totalNs
           << ",\"min_ns\":" << s.minNs << ",\"max_ns\":" << s.maxNs
           << ",\"p50_ns\":" << s.p50Ns << ",\"p95_ns\":" << s.p95Ns
           << "}";
    }
    os << "]}";
}

} // namespace prof
} // namespace pageforge
