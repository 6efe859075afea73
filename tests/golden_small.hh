/**
 * @file
 * The small golden machine: 2 cores and 2 VMs with 4/16/128 KiB
 * caches, where misses and evictions dominate (the regime of the
 * paper's L3-pollution argument, Section 4.3), and sub-second cells.
 *
 * This is the machine's one definition. pf_golden_small
 * (golden_small.cc) runs silo on it into the golden corpus, as the
 * tests/golden/small-*.json shapes; unit tests that need a whole,
 * fast simulation run on it too.
 */

#ifndef PF_TESTS_GOLDEN_SMALL_HH
#define PF_TESTS_GOLDEN_SMALL_HH

#include "system/experiment.hh"

namespace pageforge
{

/** The application every cell of the small machine runs. */
inline constexpr const char *goldenSmallApp = "silo";

/** Measurement knobs: seed 42, 50 queries in a 10-20 ms window. */
inline ExperimentConfig
goldenSmallExperiment()
{
    ExperimentConfig cfg;
    cfg.memScale = 0.03;
    cfg.warmupPasses = 2;
    cfg.settleTime = msToTicks(2);
    cfg.targetQueries = 50;
    cfg.minMeasure = msToTicks(10);
    cfg.maxMeasure = msToTicks(20);
    cfg.seed = 42;
    // Read only under churn: at most 4 dynamic VMs at once.
    cfg.churn.maxDynamicVms = 4;
    return cfg;
}

/** The machine itself, with @p num_mcs memory controllers. */
inline SystemConfig
goldenSmallSystem(unsigned num_mcs = 1)
{
    SystemConfig sys;
    sys.numCores = 2;
    sys.numVms = 2;
    sys.numMcs = num_mcs;
    sys.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    sys.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    sys.l3 = CacheConfig{"l3", 128 * 1024, 16, 20, 16};
    return sys;
}

} // namespace pageforge

#endif // PF_TESTS_GOLDEN_SMALL_HH
