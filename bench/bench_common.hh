/**
 * @file
 * Shared plumbing for the per-table/per-figure bench harnesses.
 *
 * Every harness accepts:
 *   --quick        small memory images and short windows (CI-sized)
 *   --scale=X      memory-image scale factor (default 0.25)
 *   --queries=N    target queries per measurement window
 *   --seed=S       experiment seed
 *   --jobs=N       parallel campaign workers (default: all cores)
 *   --num-mcs=N    memory controllers per simulated machine (default 1)
 *
 * Harnesses that sweep the (app x mode) matrix obtain their rows from
 * the parallel campaign runner (system/campaign.hh), so wall-clock
 * scales with the host's core count instead of the matrix size.
 *
 * Absolute numbers depend on the synthetic substrate; the harnesses
 * reproduce the *shape* of the paper's results (who wins, by roughly
 * what factor). EXPERIMENTS.md records paper-vs-measured values.
 */

#ifndef PF_BENCH_BENCH_COMMON_HH
#define PF_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "stats/table.hh"
#include "system/campaign.hh"
#include "system/experiment.hh"

namespace pageforge
{

/** Parsed command-line options of a bench harness. */
struct BenchOptions
{
    double memScale = 0.2;
    std::uint64_t targetQueries = 1500;
    unsigned warmupPasses = 6;
    std::uint64_t seed = 42;
    bool quick = false;
    unsigned jobs = 0; //!< campaign workers; 0 = hardware concurrency
    unsigned numMcs = 1; //!< controllers per simulated machine

    ExperimentConfig
    experimentConfig() const
    {
        ExperimentConfig cfg;
        cfg.memScale = memScale;
        cfg.warmupPasses = warmupPasses;
        cfg.targetQueries = targetQueries;
        cfg.seed = seed;
        if (quick) {
            cfg.settleTime = msToTicks(10);
            cfg.minMeasure = msToTicks(60);
            cfg.maxMeasure = msToTicks(400);
        } else {
            // Cap the window (sphinx at 1 QPS would otherwise ask for
            // minutes of virtual time).
            cfg.maxMeasure = msToTicks(8000);
        }
        return cfg;
    }
};

inline BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            opts.quick = true;
            opts.memScale = 0.08;
            opts.targetQueries = 600;
        } else if (arg.rfind("--scale=", 0) == 0) {
            opts.memScale = std::atof(arg.c_str() + 8);
        } else if (arg.rfind("--queries=", 0) == 0) {
            opts.targetQueries = std::strtoull(arg.c_str() + 10,
                                               nullptr, 10);
        } else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs = static_cast<unsigned>(
                std::atoi(arg.c_str() + 7));
        } else if (arg.rfind("--num-mcs=", 0) == 0) {
            opts.numMcs = static_cast<unsigned>(
                std::atoi(arg.c_str() + 10));
            if (opts.numMcs == 0) {
                std::fprintf(stderr, "--num-mcs needs N >= 1\n");
                std::exit(1);
            }
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--scale=X] "
                         "[--queries=N] [--seed=S] [--jobs=N] "
                         "[--num-mcs=N]\n",
                         argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            std::exit(1);
        }
    }
    return opts;
}

/** Progress note on stderr so long runs show life. */
inline void
progress(const std::string &what)
{
    std::fprintf(stderr, "[bench] %s\n", what.c_str());
}

/** Run one experiment with a progress note. */
inline ExperimentResult
runOne(const AppProfile &app, DedupMode mode, const BenchOptions &opts)
{
    progress(app.name + " / " + dedupModeName(mode));
    return runExperiment(app, mode, opts.experimentConfig());
}

/**
 * Run the (all apps x @p modes) matrix through the parallel campaign
 * runner. A bench needs every row of its table, so any failed cell is
 * fatal here.
 */
inline CampaignReport
runBenchCampaign(const BenchOptions &opts, std::vector<DedupMode> modes)
{
    CampaignSpec spec;
    spec.modes = std::move(modes);
    spec.experiment = opts.experimentConfig();
    spec.jobs = opts.jobs;
    spec.sysTemplate.numMcs = opts.numMcs;
    spec.progress = [](const CellOutcome &outcome, std::size_t done,
                       std::size_t total) {
        progress("[" + std::to_string(done) + "/" +
                 std::to_string(total) + "] " + outcome.cell.app +
                 " / " + dedupModeName(outcome.cell.mode) +
                 (outcome.ok ? "" : ": " + outcome.error));
    };

    CampaignReport report = runCampaign(spec);
    progress("campaign: " + std::to_string(report.cells.size()) +
             " cells in " + TablePrinter::fmt(report.wallSeconds, 1) +
             " s (" + std::to_string(report.jobs) + " jobs)");
    for (const CellOutcome &outcome : report.cells)
        if (!outcome.ok)
            fatal("campaign cell %s/%s failed: %s",
                  outcome.cell.app.c_str(),
                  dedupModeName(outcome.cell.mode),
                  outcome.error.c_str());
    return report;
}

} // namespace pageforge

#endif // PF_BENCH_BENCH_COMMON_HH
