/**
 * @file
 * Ablation: Scan Table size (Other Pages entries) vs refills per
 * scanned page, hardware batch time, and table area/power.
 *
 * The paper picks 31 entries + 1 PFE (~260 B, Table 2): enough for a
 * root plus four tree levels. Fewer entries force more OS refills
 * (more 12k-cycle check round-trips per candidate); more entries
 * enlarge the structure for diminishing returns once batches cover
 * typical search depths.
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

    TablePrinter table("Ablation: Scan table size");
    table.setHeader({"Entries", "Table bytes", "Refills/page",
                     "Checks/page", "Avg batch cyc", "Area (mm^2)",
                     "Power (W)"});

    for (unsigned entries : {7u, 15u, 31u, 63u}) {
        progress("scan table entries = " + std::to_string(entries));
        SystemConfig sys_cfg = opts.systemConfig();
        sys_cfg.pfModule.scanTableEntries = entries;
        ExperimentResult result = runExperiment(
            app, DedupMode::PageForge, opts.experimentConfig(), sys_cfg);

        double pages = result.pfPagesScanned
            ? static_cast<double>(result.pfPagesScanned)
            : 1.0;

        ScanTable scan_table(entries);
        ComponentEstimate est = PowerModel::sramStructure(
            "table", scan_table.sizeBytes(),
            DeviceType::HighPerformance);

        table.addRow({std::to_string(entries),
                      std::to_string(scan_table.sizeBytes()),
                      TablePrinter::fmt(result.pfRefills / pages),
                      TablePrinter::fmt(result.pfOsChecks / pages),
                      TablePrinter::fmt(result.pfBatchCyclesAvg, 0),
                      TablePrinter::fmt(est.areaMm2, 3),
                      TablePrinter::fmt(est.powerW, 3)});
    }

    table.print(std::cout);
    std::cout << "\nExpected shape: smaller tables need more refills "
                 "and OS checks per scanned page (deeper searches "
                 "split across more batches); larger tables cost area "
                 "and power for diminishing refill savings. The "
                 "paper's 31 entries cover a root plus four levels at "
                 "~260B.\n";
    return 0;
}
