/**
 * @file
 * Parallel experiment campaign runner.
 *
 * The paper's evaluation is a matrix of (application x dedup mode x
 * seed) cells; runExperiment() measures one cell. A campaign fans the
 * whole matrix out across a shared-nothing worker pool: every cell is
 * an independent, internally single-threaded simulation with its own
 * System, EventQueue and Rng, so cells share no mutable state and the
 * collected results are bit-identical to a serial run regardless of
 * worker count or scheduling order.
 *
 * A cell whose runner throws is captured as a failed CellOutcome; it
 * never takes the rest of the campaign down. Reports keep the stable
 * matrix order (application-major, then mode, then seed), not the
 * completion order.
 */

#ifndef PF_SYSTEM_CAMPAIGN_HH
#define PF_SYSTEM_CAMPAIGN_HH

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "system/experiment.hh"

namespace pageforge
{

/** One point of the evaluation matrix. */
struct CampaignCell
{
    std::string app;
    DedupMode mode = DedupMode::None;
    std::uint64_t seed = 0;
};

/** What happened to one cell: a result, or a captured error. */
struct CellOutcome
{
    CampaignCell cell;
    bool ok = false;
    std::string error;       //!< what() of the escaped exception
    ExperimentResult result; //!< meaningful only when ok

    /**
     * When the failure was an invariant violation (panicAt under
     * capture), the component that detected it and the simulated tick
     * it fired at; empty/0 for other failures.
     */
    std::string failComponent;
    std::uint64_t failTick = 0;

    /**
     * Process-wide peak RSS (KB) sampled right after the cell
     * finished. Host-side accounting only — like hostSeconds it is a
     * property of this run of the simulator, not of the simulation,
     * and never enters identicalResults().
     */
    std::uint64_t peakRssKb = 0;
};

/** Runs one cell; the default wraps runExperiment(). */
using CellRunner = std::function<ExperimentResult(const CampaignCell &)>;

/**
 * Progress hook, invoked after each finished cell with the number of
 * cells completed so far. Calls are serialized by the runner, so the
 * hook may print or mutate shared state without extra locking.
 */
using CellProgress = std::function<void(const CellOutcome &outcome,
                                        std::size_t done,
                                        std::size_t total)>;

/** Description of a whole campaign. */
struct CampaignSpec
{
    /** Applications by name; empty means all five TailBench apps. */
    std::vector<std::string> apps;

    /** Dedup modes; empty means Baseline, KSM and PageForge. */
    std::vector<DedupMode> modes;

    /**
     * Seeds per (app, mode) pair: experiment.seed, experiment.seed+1,
     * ... experiment.seed+numSeeds-1.
     */
    unsigned numSeeds = 1;

    /** Measurement knobs; the per-cell seed overrides .seed. */
    ExperimentConfig experiment;

    /** System template handed to every cell. */
    SystemConfig sysTemplate;

    /** Worker threads; 0 means hardware concurrency. */
    unsigned jobs = 0;

    /** Cell-runner override (tests, custom methodologies). */
    CellRunner runner;

    /** Optional progress hook. */
    CellProgress progress;

    /** Enumerate the matrix in stable report order. */
    std::vector<CampaignCell> cells() const;
};

/** Aggregated campaign results, in CampaignSpec::cells() order. */
struct CampaignReport
{
    std::vector<CellOutcome> cells;
    double wallSeconds = 0.0; //!< host wall-clock of the whole run
    unsigned jobs = 0;        //!< workers actually used
    unsigned numMcs = 1;      //!< sysTemplate.numMcs of the run
    double memScale = 1.0;    //!< experiment.memScale of the run
    std::uint64_t targetQueries = 0; //!< experiment.targetQueries

    /** Number of cells that failed. */
    std::size_t failures() const;

    /** Outcome of a cell, or nullptr when not in the matrix. */
    const CellOutcome *find(const std::string &app, DedupMode mode,
                            std::uint64_t seed) const;

    /**
     * Result of the seed_index-th seed of (app, mode). fatal()s when
     * the cell is missing or failed, so bench harnesses can consume
     * rows without per-row error plumbing.
     */
    const ExperimentResult &at(const std::string &app, DedupMode mode,
                               std::size_t seed_index = 0) const;
};

/**
 * Run every cell of @p spec across a worker pool.
 *
 * Unknown application names are rejected up front (fatal) before any
 * worker starts; exceptions thrown by individual cells are captured
 * in their CellOutcome.
 */
CampaignReport runCampaign(const CampaignSpec &spec);

/**
 * Serialize a report as JSON — one object per cell with every
 * ExperimentResult field, in stable order — for BENCH_*.json-style
 * trajectory tooling.
 */
void writeCampaignJson(const CampaignReport &report, std::ostream &os);

/**
 * Result identity: the determinism contract parallel execution must
 * preserve. Two results are identical when app and mode match and
 * their campaign-JSON text is byte-equal (doubles are written with
 * %.17g, which round-trips every finite value and tells -0.0 from
 * 0.0). The per-MC handoff-latency block is always compared; host
 * wall-clock (hostSeconds) and the sampled metrics series are not.
 */
bool identicalResults(const ExperimentResult &a,
                      const ExperimentResult &b);

/**
 * Serialize a simulation-speed report (BENCH_simspeed.json): one row
 * per cell with host wall-clock, events/sec, pages-scanned/sec and
 * peak RSS, plus campaign totals, and the workload (mem_scale,
 * target_queries) a gate must match along with (num_mcs, jobs).
 * Written by `pfsim --campaign --perf-report`.
 *
 * @param baseline_seconds pre-optimization wall-clock of the same
 *        matrix for the speedup field; <= 0 omits the comparison.
 */
void writePerfReport(const CampaignReport &report, std::ostream &os,
                     double baseline_seconds = 0.0);

} // namespace pageforge

#endif // PF_SYSTEM_CAMPAIGN_HH
