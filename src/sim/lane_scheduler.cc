#include "sim/lane_scheduler.hh"

#include <algorithm>

#include "prof/profiler.hh"
#include "sim/logging.hh"

namespace pageforge
{

namespace
{

std::uint64_t
satSub(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : 0;
}

} // namespace

double
ExecTelemetry::phase2Efficiency() const
{
    if (lanes.size() <= 1 || phase2Ns == 0)
        return 0.0;
    std::uint64_t busy = 0;
    for (std::size_t i = 1; i < lanes.size(); ++i)
        busy += lanes[i].busyNs;
    return static_cast<double>(busy) /
           (static_cast<double>(phase2Ns) *
            static_cast<double>(lanes.size() - 1));
}

LaneScheduler::LaneScheduler(EventQueue &lane0, unsigned shard_lanes,
                             Tick quantum)
    : _lane0(lane0), _quantum(quantum)
{
    pf_assert(shard_lanes > 0, "lane scheduler needs at least one shard lane");
    pf_assert(quantum > 0, "lane quantum must be positive");
    _shardLanes.reserve(shard_lanes);
    for (unsigned i = 0; i < shard_lanes; ++i)
        _shardLanes.push_back(std::make_unique<EventQueue>());
    _mailboxes.resize(shard_lanes);

    _laneSpans.resize(shard_lanes);
    _telemetry.lanes.resize(1 + shard_lanes);
    _telemetry.workerBusyNs.resize(1);
}

EventQueue &
LaneScheduler::lane(unsigned id)
{
    if (id == 0)
        return _lane0;
    pf_assert(id <= _shardLanes.size(), "lane id %u out of range", id);
    return *_shardLanes[id - 1];
}

void
LaneScheduler::post(unsigned dst_lane, Tick when, EventQueue::Callback cb)
{
    pf_assert(dst_lane >= 1 && dst_lane <= _shardLanes.size(),
              "cross-lane post to invalid lane %u", dst_lane);
    _mailboxes[dst_lane - 1].push_back(
        Mail{when, _nextMailSeq++, std::move(cb)});
}

void
LaneScheduler::drainMailboxes()
{
    // Ascending destination lane, then posting sequence: a total order
    // over this quantum's mail, so the destination queues' tie-breaking
    // sequence numbers come out the same on every run.
    for (std::size_t dst = 0; dst < _mailboxes.size(); ++dst) {
        std::vector<Mail> &box = _mailboxes[dst];
        EventQueue &queue = *_shardLanes[dst];
        for (Mail &mail : box) {
            if (mail.when < queue.curTick())
                panic("cross-lane event in the past: lane=%zu when=%llu "
                      "lane-cur=%llu",
                      dst + 1,
                      static_cast<unsigned long long>(mail.when),
                      static_cast<unsigned long long>(queue.curTick()));
            queue.schedule(mail.when, std::move(mail.cb));
            ++_delivered;
        }
        box.clear();
    }
}

void
LaneScheduler::runPhase2(Tick limit)
{
    const bool profiling = prof::enabled();
    for (std::size_t i = 0; i < _shardLanes.size(); ++i) {
        if (profiling)
            _laneSpans[i].startNs = prof::nowNs();
        _shardLanes[i]->runUntil(limit);
        if (profiling)
            _laneSpans[i].endNs = prof::nowNs();
    }
}

std::uint64_t
LaneScheduler::runUntil(Tick limit)
{
    std::uint64_t before = eventsDispatched();
    Tick now = _lane0.curTick();
    while (now < limit) {
        Tick boundary = std::min(limit, now + _quantum);
        const bool profiling = prof::enabled();
        std::uint64_t t0 = 0, t1 = 0, t2 = 0;
        if (profiling)
            t0 = prof::nowNs();
        // Phase 1: lane 0. All shared-state mutation happens here, so
        // phase 2 reads a frozen machine image.
        _lane0.runUntil(boundary);
        if (profiling) {
            t1 = prof::nowNs();
            std::size_t depth = 0;
            for (const auto &box : _mailboxes)
                depth = std::max(depth, box.size());
            _telemetry.mailboxHwm =
                std::max<std::uint64_t>(_telemetry.mailboxHwm, depth);
        }
        // Barrier: hand phase-1 mail to the shard lanes before they
        // run, in deterministic order.
        drainMailboxes();
        if (profiling)
            t2 = prof::nowNs();
        // Phase 2: shard lanes in lane order.
        runPhase2(boundary);
        if (profiling)
            recordQuantum(t0, t1, t2, prof::nowNs());
        now = boundary;
    }
    return eventsDispatched() - before;
}

void
LaneScheduler::recordQuantum(std::uint64_t t0, std::uint64_t t1,
                             std::uint64_t t2, std::uint64_t t3)
{
    ++_telemetry.quanta;
    _telemetry.phase1Ns += satSub(t1, t0);
    _telemetry.drainNs += satSub(t2, t1);
    _telemetry.phase2Ns += satSub(t3, t2);

    // Lane 0 is busy through phase 1, idle through the drain and
    // stalled while the shard lanes run. Each lane's three series sum
    // exactly to this quantum's wall time (t3 - t0).
    LaneExecStats &lane0 = _telemetry.lanes[0];
    lane0.busyNs += satSub(t1, t0);
    lane0.idleNs += satSub(t2, t1);
    lane0.stallNs += satSub(t3, t2);

    for (std::size_t i = 0; i < _laneSpans.size(); ++i) {
        // Clamp into the quantum: a span written under a profiling
        // flag that flipped mid-quantum may hold stale endpoints.
        const std::uint64_t start =
            std::clamp(_laneSpans[i].startNs, t0, t3);
        const std::uint64_t end =
            std::clamp(_laneSpans[i].endNs, start, t3);
        LaneExecStats &lane = _telemetry.lanes[i + 1];
        lane.stallNs += start - t0;
        lane.busyNs += end - start;
        lane.idleNs += t3 - end;
        _telemetry.workerBusyNs[0] += end - start;
    }
}

std::uint64_t
LaneScheduler::eventsDispatched() const
{
    std::uint64_t total = _lane0.eventsDispatched();
    for (const auto &queue : _shardLanes)
        total += queue->eventsDispatched();
    return total;
}

} // namespace pageforge
