/**
 * @file
 * Sojourn-latency collection, per VM and aggregated.
 *
 * The paper reports the mean sojourn latency (queueing + service,
 * Figure 9) and the 95th-percentile tail latency (Figure 10), each as
 * the geometric mean across the ten VMs, normalized to the Baseline
 * configuration.
 */

#ifndef PF_WORKLOAD_LATENCY_STATS_HH
#define PF_WORKLOAD_LATENCY_STATS_HH

#include <vector>

#include "sim/types.hh"
#include "stats/sampler.hh"

namespace pageforge
{

/** Collects query sojourn times. */
class LatencyStats
{
  public:
    explicit LatencyStats(unsigned num_vms);

    /** Record one completed query. */
    void record(VmId vm, Tick sojourn);

    /** All samples across VMs. */
    const Sampler &aggregate() const { return _aggregate; }

    /** Geometric mean across VMs of the per-VM mean sojourn. */
    double geoMeanOfMeans() const;

    /** Geometric mean across VMs of the per-VM p95 sojourn. */
    double geoMeanOfP95s() const;

    std::uint64_t queries() const { return _aggregate.count(); }

    void reset();

  private:
    std::vector<Sampler> _perVm;
    Sampler _aggregate;
};

} // namespace pageforge

#endif // PF_WORKLOAD_LATENCY_STATS_HH
