/**
 * @file
 * pfsim: command-line driver for single simulations and parallel
 * experiment campaigns.
 *
 * Single mode runs one (application, configuration) experiment and
 * prints the result plus, optionally, the full hierarchical
 * statistics dump of the machine — the way gem5 prints stats.txt:
 *
 *   pfsim --app=silo --mode=pageforge --scale=0.2 --window-ms=200
 *         [--seed=42] [--dump-stats] [--placement=sticky|rr|random|pinned]
 *
 * Campaign mode fans the whole (app x mode x seed) evaluation matrix
 * out across worker threads and prints one summary row per cell:
 *
 *   pfsim --campaign [--jobs=8] [--seeds=3] [--json=FILE]
 *         [--apps=silo,moses] [--modes=baseline,ksm] [--queries=1500]
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.hh"
#include "fault/merge_oracle.hh"
#include "prof/profiler.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"
#include "sim/simd.hh"
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
    bool forceScalar = false;
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

[[noreturn]] void
usage(const char *prog)
{
    std::cerr
        << "usage: " << prog << " [options]\n"
        << "  --app=NAME          img_dnn|masstree|moses|silo|sphinx\n"
        << "  --mode=MODE         baseline|ksm|pageforge\n"
        << "  --scale=X           memory-image scale (default 0.2)\n"
        << "  --window-ms=N       measurement window (default 200)\n"
        << "  --settle-ms=N       settling time (default 30)\n"
        << "  --warmup-passes=N   dedup fast-forward passes (default 6)\n"
        << "  --seed=S            experiment seed (default 42)\n"
        << "  --num-mcs=N         memory controllers / channels "
           "(default 1);\n"
        << "                      frames interleave frame %% N, one\n"
        << "                      PageForge module per controller\n"
        << "  --vms=N             fleet size: N VMs on N cores\n"
        << "                      (default: the paper's 10)\n"
        << "  --placement=P       ksmd placement: sticky|rr|random|pinned\n"
        << "  --churn=POLICY      VM churn: none|poisson|burst|rotate\n"
        << "  --churn-rate=X      arrivals and departures per second\n"
        << "  --template-app=A    app profile for churned VMs "
           "(default: --app)\n"
        << "  --dump-stats        print the full component stats dump\n"
        << "  --force-scalar      pin the scalar page-compare kernels\n"
        << "                      (same effect as PF_FORCE_SCALAR=1);\n"
        << "                      results are bit-identical either way\n"
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
    std::exit(1);
}

Options
parse(int argc, char **argv)
{
    Options opts;
    bool fault_seed_set = false;
    std::uint64_t fault_seed = 0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            std::size_t len = std::strlen(prefix);
            return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len
                                             : nullptr;
        };
        if (const char *v = value("--app=")) {
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
        } else if (arg == "--force-scalar") {
            opts.forceScalar = true;
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

/** Run the evaluation matrix in parallel and print a summary table. */
int
runCampaignMode(const Options &opts)
{
    CampaignSpec spec;
    spec.apps = opts.apps;
    spec.modes = opts.modes;
    spec.numSeeds = opts.seeds;
    spec.jobs = opts.jobs;
    spec.experiment.memScale = opts.scale;
    spec.experiment.warmupPasses = opts.warmupPasses;
    spec.experiment.seed = opts.seed;
    spec.experiment.targetQueries = opts.queries;
    spec.experiment.settleTime = msToTicks(opts.settleMs);
    spec.experiment.churn = opts.churn;
    spec.experiment.faults = opts.faults;
    if (opts.auditIntervalMs > 0.0)
        spec.experiment.auditInterval = msToTicks(opts.auditIntervalMs);
    // Event tracing is single-simulation only (the runner drops any
    // sink); per-cell metrics sampling composes fine with workers.
    spec.experiment.metricsInterval = opts.metricsInterval;
    if (opts.trace)
        std::cerr << "pfsim: --trace is ignored in campaign mode "
                     "(per-cell metrics still recorded)\n";
    spec.sysTemplate.ksmPlacement = opts.placement;
    spec.sysTemplate.numMcs = opts.numMcs;
    if (opts.vms) {
        spec.sysTemplate.numCores = opts.vms;
        spec.sysTemplate.numVms = opts.vms;
    }
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

    if (opts.forceScalar)
        simd::setLevel(simd::Level::Scalar);
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

    SystemConfig config;
    config.mode = opts.mode;
    config.memScale = opts.scale;
    config.seed = opts.seed;
    config.numMcs = opts.numMcs;
    if (opts.vms) {
        config.numCores = opts.vms;
        config.numVms = opts.vms;
    }
    config.ksmPlacement = opts.placement;
    config.churn = opts.churn;
    config.faults = opts.faults;
    if (opts.auditIntervalMs > 0.0)
        config.auditInterval = msToTicks(opts.auditIntervalMs);
    config.traceSink = sink.get();
    config.metricsInterval = opts.metricsInterval;
    if (!opts.metricsCsvPath.empty() && config.metricsInterval == 0 &&
        !sink) {
        std::cerr << "pfsim: --metrics-csv needs --metrics-interval "
                     "or --trace\n";
        return 1;
    }
    // Keep the footprint/cache ratio in the paper's regime, as the
    // experiment runner does.
    if (opts.scale < 1.0) {
        config.l2.sizeBytes = std::max<std::uint32_t>(
            64 * 1024,
            static_cast<std::uint32_t>(config.l2.sizeBytes * opts.scale *
                                       2));
        config.l3.sizeBytes = std::max<std::uint32_t>(
            1024 * 1024,
            static_cast<std::uint32_t>(config.l3.sizeBytes * opts.scale /
                                       2));
    }

    const AppProfile &app = appByName(opts.app);
    try {
        config.validate();
    } catch (const ConfigError &err) {
        std::cerr << "pfsim: bad configuration: " << err.what() << "\n";
        return 1;
    }
    System system(config, app);
    system.deploy();

    DupAnalysis before = system.hypervisor().analyzeDuplication();
    if (opts.mode != DedupMode::None)
        system.warmupDedup(opts.warmupPasses);

    system.startLoad();
    system.run(msToTicks(opts.settleMs));
    system.resetMeasurement();
    Tick window = msToTicks(opts.windowMs);
    Tick start = system.eventq().curTick();
    system.run(window);
    // Final partial metrics epoch, before the sink finishes or the
    // series is read.
    system.finishObservability();

    // ---- report ----
    DupAnalysis after = system.hypervisor().analyzeDuplication();
    const Sampler &lat = system.latency().aggregate();

    TablePrinter table("pfsim: " + opts.app + " / " +
                       dedupModeName(opts.mode));
    table.setHeader({"Metric", "Value"});
    table.addRow({"queries completed", std::to_string(lat.count())});
    table.addRow({"mean sojourn (ms)",
                  TablePrinter::fmt(ticksToMs(Tick(lat.mean())), 3)});
    table.addRow({"p95 sojourn (ms)",
                  TablePrinter::fmt(ticksToMs(Tick(lat.p95())), 3)});
    table.addRow({"p99 sojourn (ms)",
                  TablePrinter::fmt(
                      ticksToMs(Tick(lat.quantile(0.99))), 3)});
    table.addRow({"guest pages", std::to_string(after.mappedPages)});
    table.addRow({"frames before merging",
                  std::to_string(before.framesUsed)});
    table.addRow({"frames now", std::to_string(after.framesUsed)});
    table.addRow({"footprint savings",
                  TablePrinter::pct(1.0 - after.footprintRatio())});
    table.addRow({"merges", std::to_string(system.hypervisor().merges())});
    table.addRow({"CoW breaks",
                  std::to_string(system.hypervisor().cowBreaks())});
    table.addRow({"L3 miss rate",
                  TablePrinter::pct(system.hierarchy().l3MissRate())});
    double mean_gbps = 0.0;
    for (unsigned m = 0; m < system.numMcs(); ++m)
        mean_gbps += system.memController(m).dram().bandwidth().meanGBps(
            start, system.eventq().curTick());
    table.addRow(
        {"mean DRAM bandwidth (GB/s)", TablePrinter::fmt(mean_gbps)});

    if (opts.mode == DedupMode::Ksm) {
        Tick busy = 0;
        for (unsigned c = 0; c < system.numCores(); ++c)
            busy += system.core(c).busyTicks(Requester::Ksm);
        table.addRow({"ksmd duty (one-core equiv.)",
                      TablePrinter::pct(static_cast<double>(busy) /
                                        static_cast<double>(window))});
    }
    if (opts.mode == DedupMode::PageForge) {
        table.addRow({"PF batches",
                      std::to_string(system.pfDriver()->refills())});
        table.addRow({"PF avg batch cycles",
                      TablePrinter::fmt(
                          system.pfModule()->tableProcessCycles().mean(),
                          0)});
        table.addRow({"PF OS checks",
                      std::to_string(system.pfDriver()->osChecks())});
    }
    if (system.numMcs() > 1) {
        CrossMcRouter *router = system.crossMcRouter();
        for (unsigned m = 0; m < system.numMcs(); ++m) {
            std::string label = "mc" + std::to_string(m);
            std::string row;
            if (PageForgeDriver *driver = system.pfDriver()) {
                row += "scans=" +
                    std::to_string(driver->shardScans(m)) +
                    " merges=" + std::to_string(driver->shardMerges(m));
            }
            if (router) {
                if (!row.empty())
                    row += " ";
                row += "handoffs_in=" +
                    std::to_string(router->handoffsTo(m)) +
                    " handoffs_out=" +
                    std::to_string(router->handoffsFrom(m));
            }
            table.addRow({label, row});
        }
        if (router)
            table.addRow({"cross-MC handoffs",
                          std::to_string(router->totalHandoffs())});
    }
    if (LifecycleManager *lc = system.lifecycle()) {
        const LifecycleStats &ls = lc->stats();
        table.addRow({"VM clones", std::to_string(ls.clones)});
        table.addRow({"VM boots", std::to_string(ls.boots)});
        table.addRow({"VM shutdowns", std::to_string(ls.shutdowns)});
        table.addRow({"live dynamic VMs",
                      std::to_string(lc->liveDynamicVms())});
        table.addRow({"frames reclaimed (freed)",
                      std::to_string(ls.framesFreed)});
        table.addRow({"mean unmerge storm (pages)",
                      TablePrinter::fmt(ls.unmergeStorm.mean(), 1)});
        table.addRow({"mean reclaim cost (us)",
                      TablePrinter::fmt(ls.reclaimLatencyUs.mean(), 1)});
        table.addRow({"mean merge recovery (ms)",
                      TablePrinter::fmt(ls.mergeRecoveryMs.mean(), 2)});
        table.addRow({"recovery timeouts",
                      std::to_string(ls.recoveryTimeouts)});
    }
    std::uint64_t oracle_violations = 0;
    std::uint64_t ecc_corrected = 0;
    std::uint64_t ecc_uncorrectable = 0;
    for (unsigned m = 0; m < system.numMcs(); ++m) {
        ecc_corrected += system.memController(m).correctedErrors();
        ecc_uncorrectable +=
            system.memController(m).uncorrectableErrors();
    }
    if (FaultInjector *inj = system.faultInjector()) {
        const FaultInjectStats &fs = inj->stats();
        table.addRow({"fault: bit-flip events",
                      std::to_string(fs.flipEvents)});
        table.addRow({"fault: single/double flips",
                      std::to_string(fs.singleBitFlips) + " / " +
                          std::to_string(fs.doubleBitFlips)});
        table.addRow({"fault: stuck-at faults",
                      std::to_string(fs.stuckAtFaults)});
        table.addRow({"fault: minikey-line targeted",
                      std::to_string(fs.minikeyTargeted)});
        table.addRow({"fault: scan-table corruptions",
                      std::to_string(fs.tableCorruptions)});
        table.addRow({"fault: merge-race writes",
                      std::to_string(fs.raceWrites)});
        table.addRow({"ECC corrected errors",
                      std::to_string(ecc_corrected)});
        table.addRow({"ECC uncorrectable errors",
                      std::to_string(ecc_uncorrectable)});
        table.addRow({"poisoned frames",
                      std::to_string(system.memory().poisonedFrames())});
        table.addRow({"quarantined frames",
                      std::to_string(
                          system.memory().quarantinedFrames())});
        if (opts.mode == DedupMode::PageForge) {
            table.addRow({"false key matches",
                          std::to_string(
                              system.pfDriver()->falseKeyMatches())});
            table.addRow({"ECC offset rotations",
                          std::to_string(
                              system.pfDriver()->offsetRotations())});
            table.addRow({"merge aborts / retries",
                          std::to_string(system.pfDriver()->mergeAborts()) +
                              " / " +
                              std::to_string(
                                  system.pfDriver()->mergeRetries())});
        }
        if (fs.mcWedges || fs.brownouts) {
            table.addRow({"fault: module wedges",
                          std::to_string(fs.mcWedges)});
            table.addRow({"fault: channel brownouts",
                          std::to_string(fs.brownouts)});
        }
        if (CrossMcRouter *router = system.crossMcRouter()) {
            if (router->handoffsLost() || router->handoffsCorrupted() ||
                router->handoffsSpiked()) {
                table.addRow({"handoffs lost / corrupted / spiked",
                              std::to_string(router->handoffsLost()) +
                                  " / " +
                                  std::to_string(
                                      router->handoffsCorrupted()) +
                                  " / " +
                                  std::to_string(
                                      router->handoffsSpiked())});
                table.addRow({"handoff retries / dead letters",
                              std::to_string(router->handoffRetries()) +
                                  " / " +
                                  std::to_string(
                                      router->handoffDeadLetters())});
            }
        }
        if (ModuleWatchdog *dog = system.watchdog()) {
            table.addRow({"wedges detected / restarts",
                          std::to_string(dog->wedgesDetected()) + " / " +
                              std::to_string(dog->moduleRestarts())});
            table.addRow({"failovers / readmissions",
                          std::to_string(dog->failovers()) + " / " +
                              std::to_string(dog->readmissions())});
        }
        if (McHealthMonitor *health = system.healthMonitor()) {
            for (unsigned m = 0; m < health->numMcs(); ++m) {
                table.addRow({"mc" + std::to_string(m) + " health",
                              std::string(mcHealthName(
                                  health->state(m))) +
                                  " (" +
                                  std::to_string(
                                      health->transitionsOf(m)) +
                                  " transitions)"});
            }
        }
        if (MergeOracle *oracle = system.mergeOracle()) {
            oracle_violations = oracle->violations();
            table.addRow({"merge oracle checks",
                          std::to_string(oracle->checks())});
            table.addRow({"merge oracle violations",
                          std::to_string(oracle_violations)});
        }
    }
    table.print(std::cout);

    if (FaultInjector *inj = system.faultInjector()) {
        // One greppable line for CI smoke checks.
        const FaultInjectStats &fs = inj->stats();
        const MergeOracle *oracle = system.mergeOracle();
        // New fields must stay BEFORE oracle_violations: CI greps for
        // "oracle_violations=0$" at end of line.
        const CrossMcRouter *router = system.crossMcRouter();
        const ModuleWatchdog *dog = system.watchdog();
        const ShardMap *shards = system.shardMap();
        std::cout << "pfsim: fault summary:"
                  << " flips=" << fs.flipEvents
                  << " corrected=" << ecc_corrected
                  << " uncorrectable=" << ecc_uncorrectable
                  << " poisoned=" << system.memory().poisonedFrames()
                  << " quarantined="
                  << system.memory().quarantinedFrames()
                  << " race_writes=" << fs.raceWrites
                  << " merge_aborts="
                  << (opts.mode == DedupMode::PageForge
                          ? system.pfDriver()->mergeAborts()
                          : 0)
                  << " mc_wedges=" << fs.mcWedges
                  << " brownouts=" << fs.brownouts
                  << " handoffs_lost="
                  << (router ? router->handoffsLost() : 0)
                  << " handoff_retries="
                  << (router ? router->handoffRetries() : 0)
                  << " handoff_dead_letters="
                  << (router ? router->handoffDeadLetters() : 0)
                  << " wedges_detected="
                  << (dog ? dog->wedgesDetected() : 0)
                  << " module_restarts="
                  << (dog ? dog->moduleRestarts() : 0)
                  << " failovers=" << (dog ? dog->failovers() : 0)
                  << " readmissions="
                  << (dog ? dog->readmissions() : 0)
                  << " rehomed_prefixes="
                  << (shards ? shards->rehomedPrefixes() : 0)
                  << " oracle_checks="
                  << (oracle ? oracle->checks() : 0)
                  << " cross_mc_checks="
                  << (oracle ? oracle->crossMcChecks() : 0)
                  << " oracle_violations=" << oracle_violations << "\n";
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
    if (!opts.metricsCsvPath.empty() && system.metrics()) {
        std::ofstream csv(opts.metricsCsvPath);
        if (!csv) {
            std::cerr << "cannot open " << opts.metricsCsvPath
                      << " for writing\n";
            return 1;
        }
        system.metrics()->series().writeCsv(csv);
        std::cerr << "wrote " << opts.metricsCsvPath << "\n";
    }
    if (int rc = writeProfileOutput(opts))
        return rc;
    if (oracle_violations) {
        std::cerr << "pfsim: MERGE ORACLE VIOLATION: "
                  << oracle_violations
                  << " merge(s) of differing pages\n";
        return 1;
    }
    return 0;
}
