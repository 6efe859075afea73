/**
 * @file
 * Open-loop query generator: one latency-critical application
 * instance running inside a VM pinned to a core.
 *
 * Queries arrive as a Poisson process at the profile's QPS and queue
 * at the VM's core. A query's service is an access stream over the
 * VM's working set driven through the cache hierarchy, interleaved
 * with compute cycles; stores may hit merged pages and take CoW
 * breaks, whose copy traffic and fault cost the query pays. Sojourn
 * time (arrival to completion) feeds Figures 9 and 10.
 *
 * Background churn dirties shared pages and later restores their
 * canonical contents, keeping the merging daemons busy at steady
 * state (broken merges to re-merge).
 */

#ifndef PF_WORKLOAD_QUERY_GEN_HH
#define PF_WORKLOAD_QUERY_GEN_HH

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "hyper/hypervisor.hh"
#include "sim/rng.hh"
#include "workload/app_profile.hh"
#include "workload/content_gen.hh"
#include "workload/latency_stats.hh"

namespace pageforge
{

/** One VM's application instance. */
class TailBenchApp : public SimObject
{
  public:
    TailBenchApp(std::string name, EventQueue &eq, Hypervisor &hyper,
                 Hierarchy &hierarchy, Core &core,
                 ContentGenerator &content, const VmLayout &layout,
                 const AppProfile &profile, LatencyStats &latency,
                 Rng rng);

    /** Begin generating queries (and churn) at the current tick. */
    void start();

    /** Stop issuing new arrivals; in-flight queries complete. */
    void stop() { _running = false; }

    bool isRunning() const { return _running; }

    VmId vmId() const { return _layout.vm; }
    const AppProfile &profile() const { return _profile; }

    std::uint64_t queriesCompleted() const { return _completed.value(); }
    std::uint64_t cowBreaksTaken() const { return _cowBreaks.value(); }

    /** Soft fault cost: hypervisor exit + page-table walk. */
    static constexpr Tick faultCycles = 1800;

  private:
    Hypervisor &_hyper;
    Hierarchy &_hierarchy;
    Core &_core;
    ContentGenerator &_content;
    VmLayout _layout;
    AppProfile _profile;
    LatencyStats &_latency;
    Rng _rng;
    bool _running = false;

    Counter _completed;
    Counter _cowBreaks;

    void scheduleArrival();
    void onArrival();

    /** Execute one query; returns its service duration. */
    Tick executeQuery(Tick start);

    /** Pick the guest page of the next access. */
    GuestPageNum pickPage(bool write);

    /** Charge the CoW page copy through the core's caches. */
    Tick chargeCowCopy(Tick now, FrameId src_frame, FrameId dst_frame);

    void scheduleChurn();
    void onChurn();
};

} // namespace pageforge

#endif // PF_WORKLOAD_QUERY_GEN_HH
