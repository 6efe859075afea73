/**
 * @file
 * pfsim: command-line driver for single simulations and parallel
 * experiment campaigns.
 *
 * Single mode runs one (application, configuration) experiment
 * through the experiment runner (runExperiment on a System it keeps)
 * and prints the result — the same definitions a campaign cell uses —
 * plus, optionally, the full hierarchical statistics dump of the
 * machine, the way gem5 prints stats.txt:
 *
 *   pfsim --app=silo --mode=pageforge --scale=0.2 --window-ms=200
 *         [--seed=42] [--dump-stats] [--placement=sticky|rr|random|pinned]
 *
 * Campaign mode fans the whole (app x mode x seed) evaluation matrix
 * out across worker threads and prints one summary row per cell:
 *
 *   pfsim --campaign [--jobs=8] [--seeds=3] [--json=FILE]
 *         [--apps=silo,moses] [--modes=baseline,ksm] [--queries=1500]
 *
 * A flag only the other mode reads is refused with exit 1, not
 * silently dropped.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "prof/profiler.hh"
#include "stats/table.hh"
#include "system/campaign.hh"
#include "system/system.hh"
#include "trace/trace_sink.hh"

using namespace pageforge;

namespace
{

struct Options
{
    std::string app = "masstree";
    DedupMode mode = DedupMode::PageForge;
    double scale = 0.2;
    double windowMs = 200.0;
    double settleMs = 30.0;
    unsigned warmupPasses = 6;
    std::uint64_t seed = 42;
    unsigned numMcs = 1;
    unsigned vms = 0;  //!< 0 = Table 2 default fleet (10 VMs)
    bool dumpStats = false;
    KsmPlacement placement = KsmPlacement::Sticky;

    // ---- observability ----
    bool trace = false;
    std::string tracePath = "trace.json";
    bool profile = false;
    std::string profilePath;            //!< empty = stdout
    std::string traceFilter;            //!< empty = every component
    std::uint64_t metricsInterval = 0;  //!< ticks; 0 = off/default
    std::string metricsCsvPath;

    // ---- VM churn ----
    ChurnConfig churn{};

    // ---- fault injection ----
    FaultConfig faults{};
    double auditIntervalMs = 0.0;

    // ---- campaign mode ----
    bool campaign = false;
    unsigned jobs = 0;  //!< 0 = hardware concurrency
    unsigned seeds = 1; //!< seeds per (app, mode) cell
    std::uint64_t queries = 1500;
    std::string jsonPath;
    bool perfReport = false;
    std::string perfReportPath = "BENCH_simspeed.json";
    double baselineSeconds = 0.0;
    std::vector<std::string> apps;  //!< empty = all TailBench apps
    std::vector<DedupMode> modes;   //!< empty = all three modes
};

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> items;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

/** Print the option summary and exit: to stdout with 0 when asked for. */
[[noreturn]] void
usage(const char *prog, int status = 1)
{
    (status == 0 ? std::cout : std::cerr)
        << "usage: " << prog << " [options]\n"
        << "  -h, --help          print this summary and exit\n"
        << "  --app=NAME          img_dnn|masstree|moses|silo|sphinx\n"
        << "  --mode=MODE         baseline|ksm|pageforge\n"
        << "  --scale=X           memory-image scale (default 0.2)\n"
        << "  --window-ms=N       measurement window (default 200)\n"
        << "  --settle-ms=N       settling time (default 30)\n"
        << "  --warmup-passes=N   dedup fast-forward passes (default 6)\n"
        << "  --seed=S            experiment seed (default 42)\n"
        << "  --num-mcs=N         memory controllers / channels "
           "(default 1);\n"
        << "                      frames interleave frame % N, one\n"
        << "                      PageForge module per controller\n"
        << "  --vms=N             fleet size: N VMs on N cores\n"
        << "                      (default: the paper's 10; at most 127)\n"
        << "  --placement=P       ksmd placement: sticky|rr|random|pinned\n"
        << "  --churn=POLICY      VM churn: none|poisson|burst|rotate\n"
        << "  --churn-rate=X      arrivals and departures per second\n"
        << "  --template-app=A    app profile for churned VMs "
           "(default: --app)\n"
        << "  --dump-stats        print the full component stats dump\n"
        << "fault injection:\n"
        << "  --faults=SPEC       enable fault injection; SPEC is k=v\n"
        << "                      pairs: rate (bit flips/GB/s),\n"
        << "                      double, stuck, minikey (fractions),\n"
        << "                      scantable, race (probabilities),\n"
        << "                      mcwedge, brownout (events/s),\n"
        << "                      brownout_ms, brownout_mult,\n"
        << "                      handoff_loss, handoff_corrupt,\n"
        << "                      handoff_spike, spike_mult, seed. e.g.\n"
        << "                      --faults=rate=50,double=0.2,race=0.01\n"
        << "                      --faults=mcwedge=40,handoff_loss=0.05\n"
        << "  --fault-seed=N      fault RNG stream seed (default 0)\n"
        << "  --audit-interval=N  audit every frame mapping every N ms\n"
        << "                      and fail fast on inconsistency\n"
        << "observability:\n"
        << "  --trace[=FILE]      write a Chrome/Perfetto trace of the\n"
        << "                      measured load (default trace.json)\n"
        << "  --trace-filter=C,C  components to trace and log: sim,\n"
        << "                      scan-table, ksm, dram-bw, cache,\n"
        << "                      lifecycle, fault\n"
        << "  --profile[=FILE]    enable the host-time self-profiler:\n"
        << "                      per-component wall-clock histograms\n"
        << "                      (table to stdout or FILE) and a\n"
        << "                      \"profile\" key in campaign JSON\n"
        << "  --metrics-interval=T  sample metrics every T ticks (also\n"
        << "                      applies per cell in campaign mode)\n"
        << "  --metrics-csv=FILE  write the sampled series as CSV\n"
        << "campaign mode:\n"
        << "  --campaign          run the (app x mode x seed) matrix\n"
        << "  --jobs=N            worker threads (default: all cores)\n"
        << "  --seeds=K           seeds per cell (default 1)\n"
        << "  --json=FILE         write the full report as JSON\n"
        << "  --apps=A,B,...      subset of apps (default: all five)\n"
        << "  --modes=M,N,...     subset of modes (default: all three)\n"
        << "  --queries=N         target queries per window (default "
           "1500)\n"
        << "  --perf-report[=F]   write a simulation-speed report "
           "(default BENCH_simspeed.json)\n"
        << "  --baseline-seconds=X  reference wall-clock for the "
           "report's speedup field\n";
    std::exit(status);
}

/** Flags that only a single run reads; --campaign would drop them. */
const char *const singleRunFlags[] = {
    "--app", "--mode", "--window-ms", "--dump-stats", "--metrics-csv"};

/** Flags that only campaign mode reads; a single run would drop them. */
const char *const campaignFlags[] = {
    "--jobs",    "--seeds",   "--json",        "--apps",
    "--modes",   "--queries", "--perf-report", "--baseline-seconds"};

Options
parse(int argc, char **argv)
{
    Options opts;
    bool fault_seed_set = false;
    std::uint64_t fault_seed = 0;
    std::string single_flag;   //!< first single-run-only flag seen
    std::string campaign_flag; //!< first campaign-only flag seen
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string name = arg.substr(0, arg.find('='));
        auto listed = [&name](const auto &flags) {
            return std::find(std::begin(flags), std::end(flags), name) !=
                std::end(flags);
        };
        if (single_flag.empty() && listed(singleRunFlags))
            single_flag = name;
        if (campaign_flag.empty() && listed(campaignFlags))
            campaign_flag = name;
        auto value = [&](const char *prefix) -> const char * {
            std::size_t len = std::strlen(prefix);
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len
                                             : nullptr;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else if (const char *v = value("--app=")) {
            opts.app = v;
        } else if (const char *v = value("--mode=")) {
            std::string mode = v;
            if (mode == "baseline")
                opts.mode = DedupMode::None;
            else if (mode == "ksm")
                opts.mode = DedupMode::Ksm;
            else if (mode == "pageforge")
                opts.mode = DedupMode::PageForge;
            else
                usage(argv[0]);
        } else if (const char *v = value("--scale=")) {
            opts.scale = std::atof(v);
        } else if (const char *v = value("--window-ms=")) {
            opts.windowMs = std::atof(v);
        } else if (const char *v = value("--settle-ms=")) {
            opts.settleMs = std::atof(v);
        } else if (const char *v = value("--warmup-passes=")) {
            opts.warmupPasses = static_cast<unsigned>(std::atoi(v));
        } else if (const char *v = value("--seed=")) {
            opts.seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = value("--num-mcs=")) {
            opts.numMcs = static_cast<unsigned>(std::atoi(v));
            if (opts.numMcs == 0)
                usage(argv[0]);
        } else if (const char *v = value("--vms=")) {
            opts.vms = static_cast<unsigned>(std::atoi(v));
            if (opts.vms == 0)
                usage(argv[0]);
        } else if (const char *v = value("--placement=")) {
            std::string p = v;
            if (p == "sticky")
                opts.placement = KsmPlacement::Sticky;
            else if (p == "rr")
                opts.placement = KsmPlacement::RoundRobin;
            else if (p == "random")
                opts.placement = KsmPlacement::Random;
            else if (p == "pinned")
                opts.placement = KsmPlacement::Pinned;
            else
                usage(argv[0]);
        } else if (const char *v = value("--churn=")) {
            if (!parseChurnKind(v, opts.churn.kind))
                usage(argv[0]);
        } else if (const char *v = value("--churn-rate=")) {
            double rate = std::atof(v);
            opts.churn.arrivalsPerSec = rate;
            opts.churn.departuresPerSec = rate;
        } else if (const char *v = value("--template-app=")) {
            opts.churn.templateApp = v;
        } else if (const char *v = value("--faults=")) {
            try {
                opts.faults = FaultConfig::parse(v);
            } catch (const std::invalid_argument &err) {
                std::cerr << "pfsim: bad --faults spec: " << err.what()
                          << "\n";
                usage(argv[0]);
            }
        } else if (const char *v = value("--fault-seed=")) {
            fault_seed = std::strtoull(v, nullptr, 10);
            fault_seed_set = true;
        } else if (const char *v = value("--audit-interval=")) {
            opts.auditIntervalMs = std::atof(v);
            if (!(opts.auditIntervalMs > 0.0))
                usage(argv[0]);
        } else if (arg == "--dump-stats") {
            opts.dumpStats = true;
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (const char *v = value("--trace=")) {
            opts.trace = true;
            opts.tracePath = v;
        } else if (arg == "--profile") {
            opts.profile = true;
        } else if (const char *v = value("--profile=")) {
            opts.profile = true;
            opts.profilePath = v;
        } else if (const char *v = value("--trace-filter=")) {
            opts.traceFilter = v;
        } else if (const char *v = value("--metrics-interval=")) {
            opts.metricsInterval = std::strtoull(v, nullptr, 10);
        } else if (const char *v = value("--metrics-csv=")) {
            opts.metricsCsvPath = v;
        } else if (arg == "--campaign") {
            opts.campaign = true;
        } else if (const char *v = value("--jobs=")) {
            opts.jobs = static_cast<unsigned>(std::atoi(v));
        } else if (const char *v = value("--seeds=")) {
            opts.seeds = static_cast<unsigned>(std::atoi(v));
            if (opts.seeds == 0)
                usage(argv[0]);
        } else if (const char *v = value("--json=")) {
            opts.jsonPath = v;
        } else if (const char *v = value("--apps=")) {
            opts.apps = splitList(v);
        } else if (const char *v = value("--modes=")) {
            for (const std::string &m : splitList(v)) {
                if (m == "baseline")
                    opts.modes.push_back(DedupMode::None);
                else if (m == "ksm")
                    opts.modes.push_back(DedupMode::Ksm);
                else if (m == "pageforge")
                    opts.modes.push_back(DedupMode::PageForge);
                else
                    usage(argv[0]);
            }
        } else if (const char *v = value("--queries=")) {
            opts.queries = std::strtoull(v, nullptr, 10);
        } else if (arg == "--perf-report") {
            opts.perfReport = true;
        } else if (const char *v = value("--perf-report=")) {
            opts.perfReport = true;
            opts.perfReportPath = v;
        } else if (const char *v = value("--baseline-seconds=")) {
            opts.baselineSeconds = std::atof(v);
        } else {
            usage(argv[0]);
        }
    }
    // A flag of the other mode would be silently ignored: refuse it.
    if (opts.campaign && !single_flag.empty()) {
        std::cerr << "pfsim: " << single_flag
                  << " applies to a single run, not to --campaign\n";
        std::exit(1);
    }
    if (!opts.campaign && !campaign_flag.empty()) {
        std::cerr << "pfsim: " << campaign_flag
                  << " applies only with --campaign\n";
        std::exit(1);
    }
    // --fault-seed wins regardless of its position relative to
    // --faults (whose parse() resets the whole struct).
    if (fault_seed_set)
        opts.faults.seed = fault_seed;
    return opts;
}

/** Print (or write) the self-profiler's host-time table. */
int
writeProfileOutput(const Options &opts)
{
    if (!opts.profile)
        return 0;
    if (opts.profilePath.empty()) {
        std::cout << "\n---- host-time profile ----\n";
        prof::writeTable(std::cout);
        return 0;
    }
    std::ofstream os(opts.profilePath);
    if (!os) {
        std::cerr << "cannot open " << opts.profilePath
                  << " for writing\n";
        return 1;
    }
    prof::writeTable(os);
    std::cerr << "wrote " << opts.profilePath << "\n";
    return 0;
}

/** The measurement knobs both modes share. */
ExperimentConfig
experimentConfig(const Options &opts)
{
    ExperimentConfig cfg;
    cfg.memScale = opts.scale;
    cfg.warmupPasses = opts.warmupPasses;
    cfg.seed = opts.seed;
    cfg.targetQueries = opts.queries;
    cfg.settleTime = msToTicks(opts.settleMs);
    cfg.churn = opts.churn;
    cfg.faults = opts.faults;
    if (opts.auditIntervalMs > 0.0)
        cfg.auditInterval = msToTicks(opts.auditIntervalMs);
    cfg.metricsInterval = opts.metricsInterval;
    return cfg;
}

/** The machine both modes start from. */
SystemConfig
systemTemplate(const Options &opts)
{
    SystemConfig tmpl;
    tmpl.ksmPlacement = opts.placement;
    tmpl.numMcs = opts.numMcs;
    if (opts.vms) {
        tmpl.numCores = opts.vms;
        tmpl.numVms = opts.vms;
    }
    return tmpl;
}

/** Run the evaluation matrix in parallel and print a summary table. */
int
runCampaignMode(const Options &opts)
{
    CampaignSpec spec;
    spec.apps = opts.apps;
    spec.modes = opts.modes;
    spec.numSeeds = opts.seeds;
    spec.jobs = opts.jobs;
    // Event tracing is single-simulation only (the runner drops any
    // sink); per-cell metrics sampling composes fine with workers.
    spec.experiment = experimentConfig(opts);
    if (opts.trace)
        std::cerr << "pfsim: --trace is ignored in campaign mode "
                     "(per-cell metrics still recorded)\n";
    spec.sysTemplate = systemTemplate(opts);
    spec.progress = [](const CellOutcome &outcome, std::size_t done,
                       std::size_t total) {
        std::fprintf(stderr, "[%zu/%zu] %s / %s (seed %llu): %s\n",
                     done, total, outcome.cell.app.c_str(),
                     dedupModeName(outcome.cell.mode),
                     static_cast<unsigned long long>(outcome.cell.seed),
                     outcome.ok ? "ok" : outcome.error.c_str());
    };

    CampaignReport report = runCampaign(spec);

    TablePrinter table("pfsim campaign: " +
                       std::to_string(report.cells.size()) +
                       " cells, " + std::to_string(report.jobs) +
                       " jobs, " +
                       TablePrinter::fmt(report.wallSeconds, 1) + " s");
    table.setHeader({"Application", "Mode", "Seed", "Mean (ms)",
                     "p95 (ms)", "Savings", "Merges", "Status"});
    for (const CellOutcome &outcome : report.cells) {
        if (outcome.ok) {
            const ExperimentResult &r = outcome.result;
            table.addRow(
                {outcome.cell.app, dedupModeName(outcome.cell.mode),
                 std::to_string(outcome.cell.seed),
                 TablePrinter::fmt(r.meanSojournMs, 3),
                 TablePrinter::fmt(r.p95SojournMs, 3),
                 TablePrinter::pct(1.0 - r.dup.footprintRatio()),
                 std::to_string(r.merges), "ok"});
        } else {
            table.addRow(
                {outcome.cell.app, dedupModeName(outcome.cell.mode),
                 std::to_string(outcome.cell.seed), "-", "-", "-", "-",
                 "FAILED"});
        }
    }
    table.print(std::cout);

    if (std::size_t failed = report.failures()) {
        std::cout << "\n" << failed << " cell(s) failed:\n";
        for (const CellOutcome &outcome : report.cells)
            if (!outcome.ok)
                std::cout << "  " << outcome.cell.app << " / "
                          << dedupModeName(outcome.cell.mode)
                          << " (seed " << outcome.cell.seed
                          << "): " << outcome.error << "\n";
    }

    if (!opts.jsonPath.empty()) {
        std::ofstream json(opts.jsonPath);
        if (!json) {
            std::cerr << "cannot open " << opts.jsonPath
                      << " for writing\n";
            return 1;
        }
        writeCampaignJson(report, json);
        std::cerr << "wrote " << opts.jsonPath << "\n";
    }

    if (opts.perfReport) {
        std::ofstream perf(opts.perfReportPath);
        if (!perf) {
            std::cerr << "cannot open " << opts.perfReportPath
                      << " for writing\n";
            return 1;
        }
        writePerfReport(report, perf, opts.baselineSeconds);
        std::cerr << "wrote " << opts.perfReportPath << "\n";
    }

    if (int rc = writeProfileOutput(opts))
        return rc;

    return report.failures() ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parse(argc, argv);

    // Arm the profiler before any system exists, so setup and warm-up
    // are timed too.
    if (opts.profile)
        prof::setEnabled(true);

    std::uint32_t component_mask = allComponentsMask;
    if (!opts.traceFilter.empty()) {
        try {
            component_mask = parseComponentList(opts.traceFilter);
        } catch (const std::invalid_argument &err) {
            std::cerr << "pfsim: " << err.what() << "\n";
            return 1;
        }
        // One vocabulary: the filter narrows tagged log output too.
        setLogComponentMask(component_mask);
    }

    if (opts.campaign)
        return runCampaignMode(opts);

    std::ofstream trace_os;
    std::unique_ptr<TraceSink> sink;
    if (opts.trace) {
        trace_os.open(opts.tracePath);
        if (!trace_os) {
            std::cerr << "cannot open " << opts.tracePath
                      << " for writing\n";
            return 1;
        }
        sink = std::make_unique<TraceSink>(trace_os, component_mask);
    }

    // --window-ms fixes the window instead of a query target.
    ExperimentConfig cfg = experimentConfig(opts);
    cfg.minMeasure = cfg.maxMeasure = msToTicks(opts.windowMs);
    cfg.traceSink = sink.get();
    if (!opts.metricsCsvPath.empty() && cfg.metricsInterval == 0 &&
        !sink) {
        std::cerr << "pfsim: --metrics-csv needs --metrics-interval "
                     "or --trace\n";
        return 1;
    }

    const AppProfile &app = appByName(opts.app);
    SystemConfig config;
    try {
        cfg.validate(app);
        config =
            experimentSystemConfig(opts.mode, cfg, systemTemplate(opts));
        config.validate();
    } catch (const ConfigError &err) {
        std::cerr << "pfsim: bad configuration: " << err.what() << "\n";
        return 1;
    }
    System system(config, app);
    const ExperimentResult r = runExperiment(system, cfg);

    // ---- report ----
    TablePrinter table("pfsim: " + opts.app + " / " +
                       dedupModeName(opts.mode));
    table.setHeader({"Metric", "Value"});
    table.addRow({"queries completed", std::to_string(r.queries)});
    table.addRow({"mean sojourn (ms, geomean of VMs)",
                  TablePrinter::fmt(r.meanSojournMs, 3)});
    table.addRow({"p95 sojourn (ms, geomean of VMs)",
                  TablePrinter::fmt(r.p95SojournMs, 3)});
    table.addRow({"guest pages", std::to_string(r.dup.mappedPages)});
    table.addRow({"frames before merging",
                  std::to_string(r.dupBefore.framesUsed)});
    table.addRow({"frames now", std::to_string(r.dup.framesUsed)});
    table.addRow({"footprint savings",
                  TablePrinter::pct(1.0 - r.dup.footprintRatio())});
    table.addRow({"merges (window)", std::to_string(r.merges)});
    table.addRow({"CoW breaks (window)", std::to_string(r.cowBreaks)});
    table.addRow({"L3 miss rate", TablePrinter::pct(r.l3MissRate)});
    table.addRow({"mean DRAM bandwidth (GB/s)",
                  TablePrinter::fmt(r.baselinePhaseBwGBps)});

    if (opts.mode == DedupMode::Ksm)
        table.addRow({"ksmd core share (avg / max)",
                      TablePrinter::pct(r.ksmCycleFracAvg) + " / " +
                          TablePrinter::pct(r.ksmCycleFracMax)});
    if (opts.mode == DedupMode::PageForge) {
        table.addRow({"PF batches", std::to_string(r.pfRefills)});
        table.addRow({"PF avg batch cycles",
                      TablePrinter::fmt(r.pfBatchCyclesAvg, 0)});
        table.addRow({"PF OS checks", std::to_string(r.pfOsChecks)});
    }
    for (std::size_t m = 0; m < r.perMc.size(); ++m) {
        const McSummary &mc = r.perMc[m];
        std::string row;
        if (opts.mode == DedupMode::PageForge)
            row += "scans=" + std::to_string(mc.scans) +
                " merges=" + std::to_string(mc.merges) + " ";
        row += "handoffs_in=" + std::to_string(mc.handoffsIn) +
            " handoffs_out=" + std::to_string(mc.handoffsOut);
        table.addRow({"mc" + std::to_string(m), row});
    }
    if (r.lifecycle.enabled) {
        const LifecycleSummary &ls = r.lifecycle;
        table.addRow({"VM clones", std::to_string(ls.clones)});
        table.addRow({"VM boots", std::to_string(ls.boots)});
        table.addRow({"VM shutdowns", std::to_string(ls.shutdowns)});
        table.addRow({"frames reclaimed (freed)",
                      std::to_string(ls.framesFreed)});
        table.addRow({"mean unmerge storm (pages)",
                      TablePrinter::fmt(ls.meanUnmergeStorm, 1)});
        table.addRow({"mean reclaim cost (us)",
                      TablePrinter::fmt(ls.meanReclaimUs, 1)});
        table.addRow({"mean merge recovery (ms)",
                      TablePrinter::fmt(ls.meanRecoveryMs, 2)});
        table.addRow({"recovery timeouts",
                      std::to_string(ls.recoveryTimeouts)});
    }
    const FaultSummary &f = r.faults;
    if (f.enabled) {
        table.addRow({"fault: bit-flip events",
                      std::to_string(f.flipEvents)});
        table.addRow({"fault: single/double flips",
                      std::to_string(f.singleBitFlips) + " / " +
                          std::to_string(f.doubleBitFlips)});
        table.addRow({"fault: stuck-at faults",
                      std::to_string(f.stuckAtFaults)});
        table.addRow({"fault: minikey-line targeted",
                      std::to_string(f.minikeyTargeted)});
        table.addRow({"fault: scan-table corruptions",
                      std::to_string(f.tableCorruptions)});
        table.addRow({"fault: merge-race writes",
                      std::to_string(f.raceWrites)});
        table.addRow({"ECC corrected errors",
                      std::to_string(f.correctedErrors)});
        table.addRow({"ECC uncorrectable errors",
                      std::to_string(f.uncorrectableErrors)});
        table.addRow({"poisoned frames", std::to_string(f.poisonedFrames)});
        table.addRow({"quarantined frames",
                      std::to_string(f.quarantinedFrames)});
        table.addRow({"poisoned merge refusals",
                      std::to_string(f.poisonedMergeRefusals)});
        if (opts.mode == DedupMode::PageForge) {
            table.addRow({"false key matches",
                          std::to_string(f.falseKeyMatches)});
            table.addRow({"ECC offset rotations",
                          std::to_string(f.offsetRotations)});
            table.addRow({"merge aborts / retries",
                          std::to_string(f.mergeAborts) + " / " +
                              std::to_string(f.mergeRetries)});
        }
        if (f.mcWedgesInjected || f.brownouts) {
            table.addRow({"fault: module wedges",
                          std::to_string(f.mcWedgesInjected)});
            table.addRow({"fault: channel brownouts",
                          std::to_string(f.brownouts)});
        }
        if (f.handoffsLost || f.handoffsCorrupted || f.handoffsSpiked) {
            table.addRow({"handoffs lost / corrupted / spiked",
                          std::to_string(f.handoffsLost) + " / " +
                              std::to_string(f.handoffsCorrupted) + " / " +
                              std::to_string(f.handoffsSpiked)});
            table.addRow({"handoff retries / dead letters",
                          std::to_string(f.handoffRetries) + " / " +
                              std::to_string(f.handoffDeadLetters)});
        }
        // The watchdog exists only where PageForge modules can wedge.
        if (opts.mode == DedupMode::PageForge &&
            cfg.faults.mcWedgeRate > 0.0) {
            table.addRow({"wedges detected / restarts",
                          std::to_string(f.wedgesDetected) + " / " +
                              std::to_string(f.moduleRestarts)});
            table.addRow({"failovers / readmissions",
                          std::to_string(f.failovers) + " / " +
                              std::to_string(f.readmissions)});
        }
        for (std::size_t m = 0; m < r.perMc.size(); ++m)
            if (!r.perMc[m].health.empty())
                table.addRow({"mc" + std::to_string(m) + " health",
                              r.perMc[m].health + " (" +
                                  std::to_string(
                                      r.perMc[m].healthTransitions) +
                                  " transitions)"});
        table.addRow({"merge oracle checks",
                      std::to_string(f.oracleChecks)});
        table.addRow({"merge oracle violations",
                      std::to_string(f.oracleViolations)});
    }
    table.print(std::cout);

    if (f.enabled) {
        // One greppable line for CI smoke checks. New fields must stay
        // BEFORE oracle_violations: CI greps for "oracle_violations=0$"
        // at end of line.
        std::cout << "pfsim: fault summary:"
                  << " flips=" << f.flipEvents
                  << " corrected=" << f.correctedErrors
                  << " uncorrectable=" << f.uncorrectableErrors
                  << " poisoned=" << f.poisonedFrames
                  << " quarantined=" << f.quarantinedFrames
                  << " poisoned_merge_refusals=" << f.poisonedMergeRefusals
                  << " race_writes=" << f.raceWrites
                  << " merge_aborts=" << f.mergeAborts
                  << " mc_wedges=" << f.mcWedgesInjected
                  << " brownouts=" << f.brownouts
                  << " handoffs_lost=" << f.handoffsLost
                  << " handoff_retries=" << f.handoffRetries
                  << " handoff_dead_letters=" << f.handoffDeadLetters
                  << " wedges_detected=" << f.wedgesDetected
                  << " module_restarts=" << f.moduleRestarts
                  << " failovers=" << f.failovers
                  << " readmissions=" << f.readmissions
                  << " rehomed_prefixes=" << f.rehomedPrefixes
                  << " oracle_checks=" << f.oracleChecks
                  << " cross_mc_checks=" << f.crossMcChecks
                  << " oracle_violations=" << f.oracleViolations << "\n";
    }

    if (opts.dumpStats) {
        std::cout << "\n---- component statistics ----\n";
        system.memory().stats().dump(std::cout);
        for (unsigned m = 0; m < system.numMcs(); ++m)
            system.memController(m).stats().dump(std::cout);
        system.hierarchy().stats().dump(std::cout);
        system.hierarchy().l3().stats().dump(std::cout);
        system.hierarchy().bus().stats().dump(std::cout);
        system.hypervisor().stats().dump(std::cout);
        for (unsigned c = 0; c < system.numCores(); ++c)
            system.core(c).stats().dump(std::cout);
        for (unsigned m = 0; m < system.numMcs(); ++m)
            if (system.pfModule(m))
                system.pfModule(m)->stats().dump(std::cout);
    }

    if (sink) {
        sink->finish();
        std::cerr << "wrote " << opts.tracePath << " ("
                  << sink->totalEvents() << " events)\n";
    }
    if (!opts.metricsCsvPath.empty() && !r.metrics.empty()) {
        std::ofstream csv(opts.metricsCsvPath);
        if (!csv) {
            std::cerr << "cannot open " << opts.metricsCsvPath
                      << " for writing\n";
            return 1;
        }
        r.metrics.writeCsv(csv);
        std::cerr << "wrote " << opts.metricsCsvPath << "\n";
    }
    if (int rc = writeProfileOutput(opts))
        return rc;
    if (f.oracleViolations) {
        std::cerr << "pfsim: MERGE ORACLE VIOLATION: "
                  << f.oracleViolations
                  << " merge(s) of differing pages\n";
        return 1;
    }
    return 0;
}
