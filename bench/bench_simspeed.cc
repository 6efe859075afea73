/**
 * @file
 * Simulation-speed benchmark: wall-clock of the full (5 apps x 3
 * modes) evaluation matrix, reported as BENCH_simspeed.json.
 *
 * Unlike the table/figure harnesses this one measures the *simulator*,
 * not the simulation: host milliseconds per cell, events dispatched
 * per host second, daemon pages scanned per host second, and peak
 * process RSS. The defaults (scale 0.08, 400 queries, one worker)
 * mirror the matrix used to record the pre-optimization baseline, so
 * `--baseline-seconds=X` yields an apples-to-apples speedup figure.
 *
 * Run serially (`--jobs=1`, the default here — unlike the other
 * harnesses, which default to all cores) on an otherwise idle host
 * when comparing builds; parallel workers share caches and memory
 * bandwidth and the per-cell timings stop being comparable.
 *
 * `--num-mcs=N` benchmarks the multi-controller machine; the report
 * records `jobs` and `num_mcs`, the pair a gate compares like with
 * like on (schema v3).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_common.hh"

using namespace pageforge;

namespace
{

struct SpeedOptions
{
    double memScale = 0.08;
    std::uint64_t targetQueries = 400;
    std::uint64_t seed = 42;
    unsigned jobs = 1;
    unsigned numMcs = 1;
    double baselineSeconds = 0.0;
    std::string outPath = "BENCH_simspeed.json";
    bool quick = false;
};

SpeedOptions
parseSpeedOptions(int argc, char **argv)
{
    SpeedOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            // CI smoke: the full matrix, but at a tiny image scale.
            opts.quick = true;
            opts.memScale = 0.03;
            opts.targetQueries = 100;
        } else if (arg.rfind("--scale=", 0) == 0) {
            opts.memScale = std::atof(arg.c_str() + 8);
        } else if (arg.rfind("--queries=", 0) == 0) {
            opts.targetQueries =
                std::strtoull(arg.c_str() + 10, nullptr, 10);
        } else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs =
                static_cast<unsigned>(std::atoi(arg.c_str() + 7));
        } else if (arg.rfind("--num-mcs=", 0) == 0) {
            opts.numMcs =
                static_cast<unsigned>(std::atoi(arg.c_str() + 10));
            if (opts.numMcs == 0) {
                std::fprintf(stderr, "--num-mcs needs N >= 1\n");
                std::exit(1);
            }
        } else if (arg.rfind("--baseline-seconds=", 0) == 0) {
            opts.baselineSeconds = std::atof(arg.c_str() + 19);
        } else if (arg.rfind("--out=", 0) == 0) {
            opts.outPath = arg.c_str() + 6;
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "usage: %s [--quick] [--scale=X] "
                         "[--queries=N] [--seed=S] [--jobs=N (default "
                         "1: serial, for comparable timings)] "
                         "[--num-mcs=N] "
                         "[--baseline-seconds=X] [--out=FILE]\n",
                         argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            std::exit(1);
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    SpeedOptions opts = parseSpeedOptions(argc, argv);

    CampaignSpec spec;
    spec.experiment.memScale = opts.memScale;
    spec.experiment.targetQueries = opts.targetQueries;
    spec.experiment.seed = opts.seed;
    spec.jobs = opts.jobs;
    spec.sysTemplate.numMcs = opts.numMcs;
    spec.progress = [](const CellOutcome &outcome, std::size_t done,
                       std::size_t total) {
        progress("[" + std::to_string(done) + "/" +
                 std::to_string(total) + "] " + outcome.cell.app +
                 " / " + dedupModeName(outcome.cell.mode) + " (" +
                 TablePrinter::fmt(outcome.result.hostSeconds, 2) +
                 " s host)" +
                 (outcome.ok ? "" : ": " + outcome.error));
    };

    CampaignReport report = runCampaign(spec);

    TablePrinter table(
        "Simulation speed: " + std::to_string(report.cells.size()) +
        " cells in " + TablePrinter::fmt(report.wallSeconds, 1) +
        " s (" + std::to_string(report.jobs) + " jobs)");
    table.setHeader({"Application", "Mode", "Host (ms)", "Events/s",
                     "Pages/s", "Peak RSS (MB)"});
    for (const CellOutcome &outcome : report.cells) {
        if (!outcome.ok) {
            table.addRow({outcome.cell.app,
                          dedupModeName(outcome.cell.mode), "-", "-",
                          "-", "FAILED"});
            continue;
        }
        const ExperimentResult &r = outcome.result;
        double secs = r.hostSeconds > 0.0 ? r.hostSeconds : 1e-9;
        table.addRow(
            {outcome.cell.app, dedupModeName(outcome.cell.mode),
             TablePrinter::fmt(r.hostSeconds * 1e3, 1),
             TablePrinter::fmt(static_cast<double>(r.simEvents) / secs,
                               0),
             TablePrinter::fmt(
                 static_cast<double>(r.pagesScanned) / secs, 0),
             TablePrinter::fmt(
                 static_cast<double>(outcome.peakRssKb) / 1024.0, 1)});
    }
    table.print(std::cout);

    if (opts.baselineSeconds > 0.0)
        std::cout << "\nspeedup vs baseline ("
                  << TablePrinter::fmt(opts.baselineSeconds, 1)
                  << " s): "
                  << TablePrinter::fmt(
                         opts.baselineSeconds / report.wallSeconds, 2)
                  << "x\n";

    std::ofstream out(opts.outPath);
    if (!out) {
        std::cerr << "cannot open " << opts.outPath
                  << " for writing\n";
        return 1;
    }
    writePerfReport(report, out, opts.baselineSeconds);
    progress("wrote " + opts.outPath);

    return report.failures() ? 1 : 0;
}
