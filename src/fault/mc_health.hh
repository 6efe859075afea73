/**
 * @file
 * Per-MC health state machine for the multi-controller fleet.
 *
 * Each memory controller carries one of four health states:
 *
 *        brownout            wedge detected
 *   Healthy <--> Degraded ------+
 *      ^  \                     v
 *      |   +-----------> Quarantined
 *      |    wedge detected      | module restarted + recoveryDelay
 *      |                        v
 *      +------------------ Recovering
 *            re-admission
 *
 * Transitions are driven by the fault/recovery machinery (the module
 * watchdog for wedge paths, the fault injector for the Degraded
 * window of a brownout) and validated here: an illegal edge is a
 * simulator bug and asserts. Every transition emits an instant on the
 * Fault trace track and a greppable pf_inform line; per-state entry
 * counts feed the campaign JSON. The System constructs one only when
 * a fault campaign arms an MC-scale class.
 */

#ifndef PF_FAULT_MC_HEALTH_HH
#define PF_FAULT_MC_HEALTH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/sim_object.hh"

namespace pageforge
{

/** Health of one memory controller. */
enum class McHealth : std::uint8_t
{
    Healthy,
    Degraded,    //!< serving, but impaired (channel brownout)
    Quarantined, //!< out of rotation; duties failed over
    Recovering,  //!< restarted, warming up before re-admission
};

/** Stable lower-case name ("healthy", "degraded", ...). */
const char *mcHealthName(McHealth state);

/** Tracks and validates per-MC health transitions. */
class McHealthMonitor : public SimObject
{
  public:
    McHealthMonitor(std::string name, EventQueue &eq, unsigned num_mcs);

    unsigned numMcs() const
    {
        return static_cast<unsigned>(_states.size());
    }

    McHealth state(unsigned mc) const { return _states[mc]; }

    /**
     * Move one MC to a new state. Asserts on edges outside the state
     * machine; @p reason lands in the log line and trace args.
     */
    void transition(unsigned mc, McHealth to, const char *reason);

    /** Total transitions across the fleet. */
    std::uint64_t totalTransitions() const { return _totalTransitions; }

    /** Transitions of one MC. */
    std::uint64_t transitionsOf(unsigned mc) const
    {
        return _transitions[mc];
    }

    /** Times one MC entered a given state. */
    std::uint64_t
    entries(unsigned mc, McHealth state) const
    {
        return _entries[mc][static_cast<unsigned>(state)];
    }

  private:
    static bool legalEdge(McHealth from, McHealth to);

    std::vector<McHealth> _states;
    std::vector<std::uint64_t> _transitions;
    //!< per-MC entry counts, indexed by state
    std::vector<std::array<std::uint64_t, 4>> _entries;
    std::uint64_t _totalTransitions = 0;
};

} // namespace pageforge

#endif // PF_FAULT_MC_HEALTH_HH
