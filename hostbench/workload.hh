/**
 * @file
 * The benchmark's workloads and one repetition of a workload: every
 * cell run back to back at jobs=1, each phase timed as a span.
 */

#ifndef HOSTBENCH_WORKLOAD_HH
#define HOSTBENCH_WORKLOAD_HH

#include <string>
#include <vector>

#include "cell_driver.hh"
#include "prof/profiler.hh"
#include "probes.hh"
#include "system/campaign.hh"

namespace hostbench
{

/** Host-time phases of a cell, in execution order. */
enum class Phase : unsigned {
    Construct,
    Deploy,
    Warmup,
    Settle, //!< startLoad() + run(settle)
    Window, //!< run(window)
    Collect,
    Audit,  //!< Hypervisor::auditFrames(); outside the cell's wall
    Probes, //!< replay probes (traced runs); outside the cell's wall
    Teardown,
};

constexpr unsigned numPhases = 9;

const char *phaseName(Phase phase);

/** Audit and probes are timed but are not part of the cell's wall. */
bool phaseInWall(Phase phase);

/** One timed phase of one cell. */
struct Span
{
    unsigned cell = 0;
    Phase phase = Phase::Construct;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

/** A fixed set of cells run back to back. */
struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> apps;
    std::vector<DedupMode> modes;
    ExperimentConfig experiment; //!< .seed is the workload seed
    SystemConfig sysTemplate;

    /**
     * Cell seeds per (app, mode). Every app gets its own seeds (apps
     * sharing one would share one churn schedule, so their latencies
     * would move together); the modes of an app share them, so KSM
     * and PageForge see the same inputs. Distinct workload seeds share
     * no cell.
     */
    unsigned seedsPerCell = 1;

    /** Every cell, app-major, then mode, then seed. */
    std::vector<CampaignCell> cells() const;
};

/** The named workload with inputs made from @p seed; fatal if unknown. */
WorkloadSpec workloadByName(const std::string &name, std::uint64_t seed);

/** Names accepted by workloadByName(), in report order. */
const std::vector<std::string> &workloadNames();

/** Outcome of one cell of a repetition. */
struct CellRecord
{
    CampaignCell cell;
    bool ok = false;
    std::string error;
    ExperimentResult result; //!< valid when ok
    LayerCounters counters;  //!< valid when ok
    unsigned warmupPasses = 0;
    int laneThreads = -1;     //!< LaneScheduler::threads(); -1 = no lanes
    double wallSeconds = 0.0; //!< sum of the in-wall spans
    ProbeSamples probes;      //!< traced repetitions only
};

/** One run of every cell of a workload. */
struct RepResult
{
    std::vector<CellRecord> cells;
    std::vector<Span> spans; //!< kept in memory, written out at the end
    std::vector<prof::SiteStats> profile; //!< traced repetitions only

    double phaseSeconds(Phase phase) const; //!< summed over cells
    std::size_t failures() const;
};

/**
 * Run every cell of @p spec once. With @p traced, the prof:: sites are
 * on while a cell runs and replay probes run after each cell's results
 * are collected; neither may change a simulated statistic.
 */
RepResult runRepetition(const WorkloadSpec &spec, bool traced);

/**
 * Run the first cell of each of @p spec's modes through runExperiment()
 * and compare it with @p rep's result for that cell, host fields
 * excluded: the benchmark's CellDriver must simulate exactly what
 * the campaign runs. @return one line per mismatch; empty when equal.
 */
std::vector<std::string> checkAgainstCampaign(const WorkloadSpec &spec,
                                              const RepResult &rep);

/**
 * Hex FNV-1a digest of every simulated statistic of a repetition:
 * each cell's full result (host fields excluded) and its layer
 * counters. Equal digests mean identical simulated outcomes.
 */
std::string simDigest(const RepResult &rep);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOAD_HH
