#include "system/config.hh"

#include <cmath>

namespace pageforge
{

void
SystemConfig::validate() const
{
    if (numCores == 0)
        throw ConfigError("numCores must be at least 1");
    if (numCores > LineResidency::maxCores)
        throw ConfigError(
            "numCores is capped at " +
            std::to_string(LineResidency::maxCores) +
            " (each line's cache-residency byte counts 2 per L2 holder"
            " plus 1 for the L3)");
    if (numVms == 0)
        throw ConfigError("numVms must be at least 1");
    if (numVms > numCores)
        throw ConfigError(
            "each VM needs its own core (" + std::to_string(numVms) +
            " VMs, " + std::to_string(numCores) + " cores)");
    if (numMcs == 0)
        throw ConfigError("numMcs must be at least 1");
    if (numMcs > 64)
        throw ConfigError("numMcs is capped at 64 channels");
    if (memFrames != 0 && memFrames < numMcs)
        throw ConfigError("memFrames must cover every memory controller");
    if (!std::isfinite(memScale) || memScale <= 0.0)
        throw ConfigError("memScale must be positive and finite");
    if (!(ksmStickiness >= 0.0 && ksmStickiness <= 1.0))
        throw ConfigError("ksmStickiness must be in [0, 1]");
    std::string churn_problem = churn.problem();
    if (!churn_problem.empty())
        throw ConfigError(churn_problem);
    std::string lifecycle_problem = lifecycle.problem();
    if (!lifecycle_problem.empty())
        throw ConfigError(lifecycle_problem);
    std::string fault_problem = faults.problem();
    if (!fault_problem.empty())
        throw ConfigError(fault_problem);
}

const char *
dedupModeName(DedupMode mode)
{
    switch (mode) {
      case DedupMode::None:
        return "Baseline";
      case DedupMode::Ksm:
        return "KSM";
      case DedupMode::PageForge:
        return "PageForge";
    }
    return "?";
}

} // namespace pageforge
