/**
 * @file
 * Timing core model.
 *
 * Cores execute work items (application queries, ksmd scan chunks,
 * hypervisor CoW copies) serially. Each item's duration is computed
 * when it starts running, so it observes the memory system state at
 * that moment — cache contents, DRAM bank occupancy, bus contention.
 *
 * This is the mechanism behind the paper's KSM overhead: while a ksmd
 * chunk occupies the core, queued queries of the VM pinned to that
 * core accumulate sojourn time (Figures 9 and 10).
 */

#ifndef PF_CPU_CORE_HH
#define PF_CPU_CORE_HH

#include <deque>
#include <functional>
#include <string>

#include "mem/request.hh"
#include "sim/sim_object.hh"
#include "stats/stat_group.hh"

namespace pageforge
{

/** One schedulable unit of work. */
struct CoreTask
{
    /** Computes the task's duration given its start tick. */
    std::function<Tick(Tick start)> run;

    /** Invoked when the task completes (may be empty). */
    std::function<void(Tick done)> onDone;

    /** Accounting class for busy-cycle attribution. */
    Requester cls = Requester::App;
};

/** A single core of the multicore. */
class Core : public SimObject
{
  public:
    Core(std::string name, EventQueue &eq, CoreId id);

    CoreId id() const { return _id; }

    /** Enqueue a task at the back of the run queue. */
    void submit(CoreTask task);

    /**
     * Enqueue a task at the front of the run queue; it runs as soon as
     * the current task (if any) finishes. Used for the ksmd kernel
     * thread, which the OS scheduler prioritizes over the vCPU.
     */
    void submitFront(CoreTask task);

    /** True when nothing is running or queued. */
    bool idle() const { return !_running && _queue.empty(); }

    /** Tasks waiting behind the current one. */
    std::size_t queueDepth() const { return _queue.size(); }

    /** Busy ticks attributed to a requester class since last reset. */
    Tick busyTicks(Requester cls) const;

    /** Busy ticks across all classes since last reset. */
    Tick totalBusyTicks() const;

    StatGroup &stats() { return _stats; }

    /** Zero the busy-cycle attribution (measurement window start). */
    void resetStats();

  private:
    CoreId _id;
    std::deque<CoreTask> _queue;
    bool _running = false;
    Requester _runningCls = Requester::App;
    Tick _busyUntil = 0;

    Tick _busyBy[numRequesters] = {};
    Counter _tasksRun;
    StatGroup _stats;

    /** Start the next queued task if the core is idle. */
    void kick();
};

} // namespace pageforge

#endif // PF_CPU_CORE_HH
