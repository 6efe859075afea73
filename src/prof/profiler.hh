/**
 * @file
 * Host-time self-profiler: where does the simulator's own wall-clock
 * go?
 *
 * The simulated-time tracks (src/trace) describe the *modelled*
 * machine; this registry describes the *simulator* — nanoseconds spent
 * in event dispatch, content-tree search, SIMD page compares, ECC
 * arithmetic, Scan Table walks, and the trace/metrics machinery
 * itself. Each instrumented region is a Site, keyed back to the
 * TraceComponent vocabulary so reports line up with the existing
 * per-component tracks.
 *
 * Cost model: profiling is off by default and every probe is a single
 * relaxed atomic load when disabled — no clock read, no TLS touch, no
 * allocation. When enabled, samples land in per-thread buffers
 * (registered once per thread under a mutex, then lock-free), so the
 * hot path is two steady_clock reads plus a handful of arithmetic ops.
 * Buffers hold log2-bucketed latency histograms; snapshot() merges
 * them and interpolates p50/p95 within the winning bucket.
 *
 * Thread-safety: recordNs() is safe from any thread. snapshot(),
 * reset() and the report writers must only run while no instrumented
 * region is executing (between experiment runs, e.g. after the
 * campaign runner has joined its workers).
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "trace/component.hh"

namespace pageforge
{
namespace prof
{

/** Instrumented regions of the simulator's own execution. */
enum class Site : unsigned {
    EventDispatch,     ///< event-kernel dispatch (EventQueue::runUntil)
    ContentTreeSearch, ///< ContentTree::search full walk
    SimdCompare,       ///< SIMD page-compare kernels
    EccCompute,        ///< ECC encode on MC line accesses
    ScanTableWalk,     ///< PageForgeModule batch processing
    MetricsSample,     ///< MetricsSampler periodic sampling
};

constexpr unsigned numSites = 6;

const char *siteName(Site site);
TraceComponent siteComponent(Site site);

namespace detail
{
extern std::atomic<bool> g_enabled;
} // namespace detail

/** One relaxed load; the only cost a disabled probe pays. */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

void setEnabled(bool on);

/** Monotonic host nanoseconds (steady_clock). */
std::uint64_t nowNs();

/** Record one sample for a site; safe from any thread. */
void recordNs(Site site, std::uint64_t ns);

/**
 * Number of per-thread sample buffers ever allocated. Tests use the
 * delta across a disabled region to prove disabled probes allocate
 * nothing.
 */
std::uint64_t threadBuffers();

/** Merged per-site statistics; only sites with samples appear. */
struct SiteStats
{
    Site site;
    const char *name;
    TraceComponent comp;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t minNs = 0;
    std::uint64_t maxNs = 0;
    std::uint64_t p50Ns = 0;
    std::uint64_t p95Ns = 0;
};

std::vector<SiteStats> snapshot();

/** Clear all samples (buffers stay registered). */
void reset();

/** Human-readable table of snapshot(), one row per site. */
void writeTable(std::ostream &os);

/**
 * The campaign-JSON "profile" value: an object with a "sites" array.
 * Emitted as a fragment (no trailing newline) so callers can splice it
 * into a larger document.
 */
void writeJson(std::ostream &os);

/**
 * RAII probe: arms only if profiling was enabled at construction, so
 * the disabled path never reads a clock.
 */
class ScopedTimer
{
  public:
    explicit ScopedTimer(Site site)
    {
        if (enabled()) {
            _site = site;
            _startNs = nowNs();
            _armed = true;
        }
    }

    ~ScopedTimer()
    {
        if (_armed)
            recordNs(_site, nowNs() - _startNs);
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    std::uint64_t _startNs = 0;
    Site _site = Site::EventDispatch;
    bool _armed = false;
};

} // namespace prof
} // namespace pageforge
