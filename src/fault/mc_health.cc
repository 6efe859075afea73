#include "fault/mc_health.hh"

#include <utility>

#include "sim/logging.hh"

namespace pageforge
{

const char *
mcHealthName(McHealth state)
{
    switch (state) {
      case McHealth::Healthy:
        return "healthy";
      case McHealth::Degraded:
        return "degraded";
      case McHealth::Quarantined:
        return "quarantined";
      case McHealth::Recovering:
        return "recovering";
    }
    return "?";
}

McHealthMonitor::McHealthMonitor(std::string name, EventQueue &eq,
                                 unsigned num_mcs)
    : SimObject(std::move(name), eq), _states(num_mcs, McHealth::Healthy),
      _transitions(num_mcs), _entries(num_mcs)
{
    pf_assert(num_mcs >= 1, "health monitor needs at least one MC");
}

bool
McHealthMonitor::legalEdge(McHealth from, McHealth to)
{
    using H = McHealth;
    switch (from) {
      case H::Healthy:
        // Brownout degrades; a wedge quarantines directly.
        return to == H::Degraded || to == H::Quarantined;
      case H::Degraded:
        // Brownout ends, or a wedge lands on the impaired channel.
        return to == H::Healthy || to == H::Quarantined;
      case H::Quarantined:
        return to == H::Recovering;
      case H::Recovering:
        // Re-admission; or the module wedges again while warming up.
        return to == H::Healthy || to == H::Quarantined;
    }
    return false;
}

void
McHealthMonitor::transition(unsigned mc, McHealth to, const char *reason)
{
    pf_assert(mc < _states.size(), "MC %u out of range", mc);
    McHealth from = _states[mc];
    pf_assert(legalEdge(from, to), "illegal health edge mc%u %s -> %s",
              mc, mcHealthName(from), mcHealthName(to));
    _states[mc] = to;
    ++_transitions[mc];
    ++_totalTransitions;
    ++_entries[mc][static_cast<unsigned>(to)];
    probe().instant("mc-health", curTick(),
                    {"mc", static_cast<double>(mc)},
                    {"state", static_cast<double>(
                                  static_cast<unsigned>(to))});
    pf_inform(Fault, "mc%u health %s -> %s (%s)", mc,
              mcHealthName(from), mcHealthName(to), reason);
}

} // namespace pageforge
