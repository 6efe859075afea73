/**
 * @file
 * Lane-executor telemetry declarations, kept only for hostbench/;
 * delete with its reads in a benchmark-archetype PR.
 *
 * Every machine shape runs on one EventQueue (DESIGN.md §13), so
 * nothing constructs a LaneScheduler and System::laneScheduler() is
 * always null. The frozen host-time benchmark still compiles against
 * these names and reads them behind that null check.
 */

#ifndef PF_SIM_LANE_SCHEDULER_HH
#define PF_SIM_LANE_SCHEDULER_HH

#include <cstdint>
#include <vector>

namespace pageforge
{

/** Kept only for hostbench/; delete with its reads. */
struct LaneExecStats
{
    std::uint64_t busyNs = 0;
    std::uint64_t idleNs = 0;
    std::uint64_t stallNs = 0;
};

/** Kept only for hostbench/; delete with its reads. */
struct ExecTelemetry
{
    std::uint64_t quanta = 0;
    std::uint64_t phase1Ns = 0;
    std::uint64_t drainNs = 0;
    std::uint64_t phase2Ns = 0;
    std::uint64_t mailboxHwm = 0;
    std::vector<LaneExecStats> lanes;
    std::vector<std::uint64_t> workerBusyNs;

    double phase2Efficiency() const { return 0.0; }
};

/** Kept only for hostbench/; never constructed. */
class LaneScheduler
{
  public:
    LaneScheduler() = delete;

    unsigned threads() const { return 0; }
    const ExecTelemetry &telemetry() const { return _telemetry; }

  private:
    ExecTelemetry _telemetry;
};

} // namespace pageforge

#endif // PF_SIM_LANE_SCHEDULER_HH
