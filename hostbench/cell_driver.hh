/**
 * @file
 * One experiment cell driven phase by phase through System's public
 * calls, in exactly the order runExperiment() makes them, so each
 * phase can be timed on its own. The result is field-for-field what
 * runExperiment() returns for the same inputs (test_hostbench checks
 * this with identicalResults()).
 */

#ifndef HOSTBENCH_CELL_DRIVER_HH
#define HOSTBENCH_CELL_DRIVER_HH

#include <cstdint>
#include <memory>

#include "system/experiment.hh"

namespace hostbench
{

using namespace pageforge;

/**
 * Public counters of the simulated layers, read outside the program.
 * Cache and daemon counters are reset by System::resetMeasurement()
 * and so already cover only the measurement window; the cumulative
 * ones (DRAM, MC, hypervisor faults, router) are stored here as
 * window deltas. Every field is a simulated quantity and repeats
 * exactly for a given seed.
 */
struct LayerCounters
{
    // cache (window)
    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t l2Hits = 0, l2Misses = 0;
    std::uint64_t l3Hits = 0, l3Misses = 0;
    std::uint64_t l3AppAccesses = 0, l3AppMisses = 0;

    // DRAM and memory controllers (window deltas, all MCs)
    std::uint64_t dramReads = 0, dramWrites = 0;
    std::uint64_t rowHits = 0, rowMisses = 0;
    std::uint64_t coalescedReads = 0, eccEncodes = 0;

    // hypervisor (window delta)
    std::uint64_t softFaults = 0;

    // ksmd (window)
    std::uint64_t ksmPagesScanned = 0, ksmMerges = 0;

    // PageForge driver and modules (window, all MCs)
    std::uint64_t pfPagesScanned = 0, pfBatches = 0, pfComparisons = 0;
    std::uint64_t pfDuplicates = 0, pfLinesFetched = 0, pfSnoopHits = 0;

    // cross-MC router (window delta)
    std::uint64_t handoffs = 0;

    /** Read every counter of @p sys as it stands now. */
    static LayerCounters read(System &sys);

    /** Turn cumulative fields into deltas from @p start. */
    void subtractCumulative(const LayerCounters &start);

    /** Field-wise sum (aggregating cells). */
    LayerCounters &operator+=(const LayerCounters &other);
};

/**
 * Drives one cell. The constructor is the construction phase; call
 * deploy(), warmup(), settle(), window() and collect() once each, in
 * that order. The System stays alive after collect() so per-layer
 * counters and replay probes can read the warmed machine.
 */
class CellDriver
{
  public:
    CellDriver(const AppProfile &app, DedupMode mode,
               const ExperimentConfig &cfg,
               const SystemConfig &sys_template = {});

    CellDriver(const CellDriver &) = delete;
    CellDriver &operator=(const CellDriver &) = delete;

    void deploy();

    /** @return warm-up passes run (0 in Baseline mode). */
    unsigned warmup();

    /** startLoad() and the settling run. */
    void settle();

    /** The measurement window, with churn snapshots when churning. */
    void window();

    ExperimentResult collect();

    System &system() { return *_system; }

    /** Window deltas of the layer counters; valid after collect(). */
    const LayerCounters &counters() const { return _counters; }

  private:
    const AppProfile &_app;
    DedupMode _mode;
    ExperimentConfig _cfg;
    SystemConfig _sysCfg;
    std::unique_ptr<System> _system;

    DupAnalysis _dupBefore;
    DupAnalysis _dupWarm;
    std::uint64_t _mergesBefore = 0;
    std::uint64_t _cowBefore = 0;
    Tick _windowStart = 0;
    Tick _windowEnd = 0;
    std::vector<PhaseSnapshot> _phases;
    LayerCounters _atWindowStart;
    LayerCounters _counters;
};

} // namespace hostbench

#endif // HOSTBENCH_CELL_DRIVER_HH
