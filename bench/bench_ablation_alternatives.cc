/**
 * @file
 * Ablation: the design alternatives of Section 4.3.
 *
 * The paper argues against two software alternatives to PageForge:
 *   1. running the merging daemon on a *dedicated* (simple, in-order)
 *      core — frees the application cores but still pollutes the
 *      shared L3, is farther from memory, and costs an order of
 *      magnitude more power than PageForge (0.37 W vs 0.037 W);
 *   2. running it with *cache-bypassing* accesses — removes the
 *      pollution but keeps all the CPU cycles and pays full memory
 *      latency on every read.
 *
 * This harness measures all four options on the same workload.
 */

#include <iostream>

#include "bench_common.hh"
#include "power/power_model.hh"

using namespace pageforge;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    const AppProfile &app = appByName("masstree");

    ExperimentResult base = runOne(app, DedupMode::None, opts);

    TablePrinter table("Ablation: dedup engine alternatives "
                       "(Section 4.3, 'masstree')");
    table.setHeader({"Engine", "Mean lat", "p95 lat", "L3 miss",
                     "Merges", "Engine power (W)"});

    auto add_row = [&](const std::string &name,
                       const ExperimentResult &result, double power) {
        table.addRow({name,
                      TablePrinter::fmt(result.meanSojournMs /
                                        base.meanSojournMs) + "x",
                      TablePrinter::fmt(result.p95SojournMs /
                                        base.p95SojournMs) + "x",
                      TablePrinter::pct(result.l3MissRate),
                      std::to_string(result.merges),
                      TablePrinter::fmt(power, 3)});
    };

    add_row("Baseline (no dedup)", base, 0.0);

    // KSM migrating across the application cores (the paper's KSM).
    progress("ksm migrating");
    ExperimentResult ksm = runOne(app, DedupMode::Ksm, opts);
    add_row("KSM on app cores", ksm, 0.0);

    // KSM pinned to one core, approximating a dedicated simple core.
    progress("ksm dedicated core");
    SystemConfig pinned_cfg = opts.systemConfig();
    pinned_cfg.ksmPlacement = KsmPlacement::Pinned; // pins to last core
    // The dedicated core is an *extra* core: 11 cores, 10 VMs, so no
    // VM shares a core with the daemon.
    pinned_cfg.numCores = 11;
    ExperimentResult pinned = runExperiment(
        app, DedupMode::Ksm, opts.experimentConfig(), pinned_cfg);
    add_row("KSM on dedicated core", pinned,
            PowerModel::simpleInOrderCore().powerW);

    // KSM with uncacheable (cache-bypassing) accesses.
    progress("ksm uncacheable");
    SystemConfig bypass_cfg = opts.systemConfig();
    bypass_cfg.ksm.bypassCaches = true;
    ExperimentResult bypass = runExperiment(
        app, DedupMode::Ksm, opts.experimentConfig(), bypass_cfg);
    add_row("KSM, uncacheable accesses", bypass, 0.0);

    // PageForge.
    progress("pageforge");
    ExperimentResult pf = runOne(app, DedupMode::PageForge, opts);
    add_row("PageForge", pf, PowerModel::pageForge(260).powerW);

    table.print(std::cout);
    std::cout << "\nExpected shape: the dedicated core removes most of "
                 "the query-core interference but keeps L3 pollution "
                 "and burns ~10x PageForge's power; uncacheable "
                 "accesses remove pollution but still consume core "
                 "cycles; only PageForge removes both at 0.037 W.\n";
    return 0;
}
