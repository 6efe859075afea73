#include "workload/latency_stats.hh"

#include <cmath>

#include "sim/logging.hh"

namespace pageforge
{

LatencyStats::LatencyStats(unsigned num_vms) : _perVm(num_vms)
{
    pf_assert(num_vms > 0, "latency stats with no VMs");
}

void
LatencyStats::record(VmId vm, Tick sojourn)
{
    // VMs appear mid-run under churn; grow the per-VM table on demand.
    if (vm >= _perVm.size())
        _perVm.resize(vm + 1);
    _perVm[vm].sample(static_cast<double>(sojourn));
    _aggregate.sample(static_cast<double>(sojourn));
}

double
LatencyStats::geoMeanOfMeans() const
{
    double log_sum = 0.0;
    unsigned counted = 0;
    for (const auto &sampler : _perVm) {
        if (sampler.count() == 0)
            continue;
        log_sum += std::log(sampler.mean());
        ++counted;
    }
    return counted ? std::exp(log_sum / counted) : 0.0;
}

double
LatencyStats::geoMeanOfP95s() const
{
    double log_sum = 0.0;
    unsigned counted = 0;
    for (const auto &sampler : _perVm) {
        if (sampler.count() == 0)
            continue;
        log_sum += std::log(sampler.p95());
        ++counted;
    }
    return counted ? std::exp(log_sum / counted) : 0.0;
}

void
LatencyStats::reset()
{
    for (auto &sampler : _perVm)
        sampler.reset();
    _aggregate.reset();
}

} // namespace pageforge
