/**
 * @file
 * Per-MC event lanes under a serial quantum superstep (multi-MC
 * machines).
 *
 * A multi-controller machine splits its single event queue into one
 * *lane* per MC shard plus lane 0 for everything else (cores, the
 * hypervisor, the lifecycle manager, the PageForge driver). Lanes
 * advance through a shared sequence of fixed-size time quanta; inside
 * one quantum the schedule is a two-phase superstep:
 *
 *   phase 1  lane 0 runs to the quantum boundary. Every mutation of
 *            shared machine state (frame contents, refcounts, content
 *            trees, merge commits) happens here.
 *   drain    cross-lane messages posted during phase 1 are moved
 *            from their mailboxes onto the destination lanes in
 *            deterministic (lane, sequence) order.
 *   phase 2  the shard lanes run to the same boundary, one after the
 *            other, each touching only state its MC owns (its module,
 *            Scan Table, and controller timing) plus frame bytes that
 *            phase 1 has already frozen for this quantum.
 *
 * Phase ordering is the lookahead contract: lane 0 → shard sends are
 * delivered *within* the posting quantum (a shard lane has not run
 * yet, so any tick ≥ the quantum start is in its future), while
 * shard → lane 0 information only flows through state that lane 0
 * polls in the *next* quantum, bounding it by one quantum — which is
 * why the quantum is the PageForge driver's polling period and why
 * the CrossMcRouter's 160-tick hop never needs to cross lanes
 * directly.
 *
 * All lanes run on the calling thread: a quantum holds too little
 * phase-2 work to pay for a thread handshake (DESIGN.md §13).
 */

#ifndef PF_SIM_LANE_SCHEDULER_HH
#define PF_SIM_LANE_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace pageforge
{

/** Host-time accounting for one lane, in nanoseconds. */
struct LaneExecStats
{
    std::uint64_t busyNs = 0;  //!< dispatching events
    std::uint64_t idleNs = 0;  //!< done with the quantum, waiting
    std::uint64_t stallNs = 0; //!< waiting for its turn in the quantum
};

/**
 * Host wall-clock telemetry for the superstep executor, collected
 * only while prof::enabled() (the accounting is free otherwise). Per
 * lane and per quantum, busy + idle + stall sums to the quantum's
 * wall time, so the three series partition the run exactly.
 *
 * The field set (including the one-slot workerBusyNs and
 * phase2Efficiency()) is kept as is because the host-time benchmark
 * under hostbench/ reads it.
 */
struct ExecTelemetry
{
    std::uint64_t quanta = 0;
    std::uint64_t phase1Ns = 0; //!< lane 0 running
    std::uint64_t drainNs = 0;  //!< mailbox drain at the barrier
    std::uint64_t phase2Ns = 0; //!< shard lanes
    std::uint64_t mailboxHwm = 0; //!< deepest single mailbox at a drain
    /** Index 0 = lane 0, then one entry per shard lane. */
    std::vector<LaneExecStats> lanes;
    /** One slot: the scheduling thread's phase-2 busy time. */
    std::vector<std::uint64_t> workerBusyNs;

    /**
     * Sum of shard-lane busy time over phase-2 wall time x shard
     * lanes. Lanes run one after the other, so this is at most
     * 1/shard-lanes.
     */
    double phase2Efficiency() const;
};

/** Runs one event queue per lane under a conservative quantum barrier. */
class LaneScheduler
{
  public:
    /**
     * @param lane0       the machine's primary queue (not owned)
     * @param shard_lanes number of extra lanes, one per MC shard
     * @param quantum     barrier period in ticks
     */
    LaneScheduler(EventQueue &lane0, unsigned shard_lanes, Tick quantum);

    LaneScheduler(const LaneScheduler &) = delete;
    LaneScheduler &operator=(const LaneScheduler &) = delete;

    /** Lanes including lane 0. */
    unsigned numLanes() const
    {
        return 1 + static_cast<unsigned>(_shardLanes.size());
    }

    /** Queue of lane @p id (0 = the primary queue). */
    EventQueue &lane(unsigned id);

    Tick quantum() const { return _quantum; }

    /**
     * Phase-2 worker threads: always 0 (every lane runs on the calling
     * thread). Kept for the host-time benchmark, which reports it.
     */
    unsigned threads() const { return 0; }

    /**
     * Post a callback to another lane's queue. Must be called from
     * lane 0 during phase 1 (the driver side); the per-destination
     * mailboxes are drained at the quantum boundary in (lane,
     * sequence) order, so delivery is deterministic. @p when must not
     * precede the destination lane's clock — a cross-lane event in the
     * past panics at drain time, mirroring EventQueue::schedule.
     */
    void post(unsigned dst_lane, Tick when, EventQueue::Callback cb);

    /** Accumulated host-time telemetry (empty unless profiling ran). */
    const ExecTelemetry &telemetry() const { return _telemetry; }

    /**
     * Advance every lane to @p limit through quantum supersteps.
     * @return events dispatched across all lanes by this call
     */
    std::uint64_t runUntil(Tick limit);

    /** Lane 0's clock (the machine's notion of "now" between runs). */
    Tick curTick() const { return _lane0.curTick(); }

    /** Events dispatched across all lanes over their lifetime. */
    std::uint64_t eventsDispatched() const;

    /** Cross-lane messages delivered so far. */
    std::uint64_t messagesDelivered() const { return _delivered; }

  private:
    struct Mail
    {
        Tick when;
        std::uint64_t seq;
        EventQueue::Callback cb;
    };

    struct HostSpan
    {
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
    };

    void drainMailboxes();
    void runPhase2(Tick limit);
    void recordQuantum(std::uint64_t t0, std::uint64_t t1,
                       std::uint64_t t2, std::uint64_t t3);

    EventQueue &_lane0;
    std::vector<std::unique_ptr<EventQueue>> _shardLanes;
    Tick _quantum;

    // One mailbox per destination shard lane; appended only by lane 0
    // (phase 1), drained only at the barrier. seq is global so the
    // (lane, seq) drain order is a total order over one quantum's mail.
    std::vector<std::vector<Mail>> _mailboxes;
    std::uint64_t _nextMailSeq = 0;
    std::uint64_t _delivered = 0;

    // Host-time telemetry: each shard lane's phase-2 span in the
    // current quantum (profiling runs only).
    std::vector<HostSpan> _laneSpans;
    ExecTelemetry _telemetry;
};

} // namespace pageforge

#endif // PF_SIM_LANE_SCHEDULER_HH
