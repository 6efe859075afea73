/**
 * @file
 * Ablation: scan-rate scaling, a proxy for the number of PageForge
 * modules (Section 4.1).
 *
 * The paper argues more modules scan proportionally more pages but
 * add proportional memory pressure on the running VMs, and settles on
 * a single module. With one module in the system, scanning rate
 * scales with pages_to_scan per interval; this harness sweeps that
 * rate and reports the trade-off: merge throughput vs dedup-phase
 * bandwidth vs application latency.
 */

#include <iostream>

#include "bench_common.hh"

using namespace pageforge;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    const AppProfile &app = appByName("masstree");

    // Baseline latency reference.
    ExperimentResult base = runOne(app, DedupMode::None, opts);

    TablePrinter table("Ablation: scanning rate (proxy for # of "
                       "PageForge modules)");
    table.setHeader({"Rate (x)", "pages/interval", "Pages scanned",
                     "Merges", "Dedup BW (GB/s)", "Mean lat (norm)",
                     "p95 (norm)"});

    const SystemConfig defaults = opts.systemConfig();
    for (unsigned mult : {1u, 2u, 4u}) {
        progress("scan rate x" + std::to_string(mult));
        SystemConfig sys_cfg = defaults;
        sys_cfg.pfDriver.pagesToScan =
            defaults.pfDriver.pagesToScan * mult;
        ExperimentResult result = runExperiment(
            app, DedupMode::PageForge, opts.experimentConfig(), sys_cfg);

        table.addRow({std::to_string(mult),
                      std::to_string(sys_cfg.pfDriver.pagesToScan),
                      std::to_string(result.pfPagesScanned),
                      std::to_string(result.merges),
                      TablePrinter::fmt(result.dedupPhaseBwGBps),
                      TablePrinter::fmt(result.meanSojournMs /
                                        base.meanSojournMs),
                      TablePrinter::fmt(result.p95SojournMs /
                                        base.p95SojournMs)});
    }

    table.print(std::cout);
    std::cout << "\nExpected shape: higher scan rates scan more pages "
                 "per second (the paper's argument *for* multiple "
                 "modules) at the cost of more dedup-phase bandwidth "
                 "and a growing latency tax on the VMs (the paper's "
                 "argument *against*); 1x is the paper's design "
                 "point.\n";
    return 0;
}
