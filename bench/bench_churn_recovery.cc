/**
 * @file
 * Merge recovery under VM churn: KSM vs PageForge.
 *
 * The paper's evaluation deploys a static fleet and measures steady
 * state; cloud hosts are never static. This harness runs the burst
 * churn policy (batches of clones arriving, exponential lifetimes)
 * over each application and compares how quickly the two merging
 * configurations pull a freshly-arrived VM back to a merged steady
 * state, what a VM teardown costs (unmerge storm: shared pages that
 * must be unshared), and what the churn does to tail latency.
 */

#include <iostream>

#include "bench_common.hh"

using namespace pageforge;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);

    ExperimentConfig base = opts.experimentConfig();
    base.churn.kind = ChurnKind::Burst;
    base.churn.burstSize = 3;
    base.churn.burstInterval = msToTicks(opts.quick ? 30 : 60);
    base.churn.meanLifetime = msToTicks(opts.quick ? 25 : 40);
    base.churn.maxDynamicVms = 8;

    CampaignReport report = runBenchCampaign(
        opts, base, {DedupMode::Ksm, DedupMode::PageForge});

    TablePrinter table("Merge recovery under burst churn "
                       "(clone arrivals, exponential lifetimes)");
    table.setHeader({"Application", "Mode", "Clones", "Shutdowns",
                     "Recovery mean (ms)", "Recovery p95 (ms)",
                     "Unmerge storm", "p95 sojourn (ms)", "Savings"});
    for (const CellOutcome &outcome : report.cells) {
        const ExperimentResult &r = outcome.result;
        table.addRow(
            {outcome.cell.app, dedupModeName(outcome.cell.mode),
             std::to_string(r.lifecycle.clones + r.lifecycle.boots),
             std::to_string(r.lifecycle.shutdowns),
             TablePrinter::fmt(r.lifecycle.meanRecoveryMs, 2),
             TablePrinter::fmt(r.lifecycle.p95RecoveryMs, 2),
             TablePrinter::fmt(r.lifecycle.meanUnmergeStorm, 1),
             TablePrinter::fmt(r.p95SojournMs, 3),
             TablePrinter::pct(1.0 - r.dup.footprintRatio())});
    }
    table.print(std::cout);

    std::cout << "\nRecovery: simulated time from a VM's arrival until "
                 "its shareable pages are >= 90% merged.\n"
                 "Unmerge storm: shared pages a single VM teardown "
                 "unshares (refcount work on the reclaim path).\n";
    return 0;
}
