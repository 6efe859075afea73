/**
 * @file
 * Replay probes: host-time cost of one layer's public entry point,
 * measured by calling it directly on a cell's warmed machine after the
 * cell's results were collected. The probes mutate the machine (cache
 * contents, CoW state, merges), which is harmless only because nothing
 * reads it afterwards but the destructor.
 */

#ifndef HOSTBENCH_PROBES_HH
#define HOSTBENCH_PROBES_HH

#include <array>
#include <cstdint>
#include <vector>

#include "system/system.hh"

namespace hostbench
{

using namespace pageforge;

/** Host nanoseconds per call, plus a per-source split for the cache. */
struct ProbeSamples
{
    std::vector<std::uint32_t> accessNs;   //!< Hierarchy::access
    std::vector<std::uint32_t> readLineNs; //!< MemController::readLine
    std::vector<std::uint32_t> cowWriteNs; //!< writeToPage on shared pages

    /** Hierarchy::access ns summed / counted by AccessSource. */
    std::array<double, 5> accessNsBySource{};
    std::array<std::uint64_t, 5> accessesBySource{};

    double ksmPassSeconds = 0.0;   //!< Ksmd::runOnePassNow
    std::uint64_t ksmPassPages = 0;
    unsigned ksmPasses = 0;
    double pfPassSeconds = 0.0;    //!< PageForgeDriver::runOnePassNow
    std::uint64_t pfPassPages = 0;
    unsigned pfPasses = 0;
    unsigned pfPassesSkipped = 0;  //!< modules never went idle

    void append(const ProbeSamples &other);
};

/**
 * Run every probe that applies to @p sys's mode, in an order where no
 * probe sees another's side effects that matter to it: cache and MC
 * replays, then the daemon pass, then CoW writes (which unshare pages).
 */
ProbeSamples runProbes(System &sys);

} // namespace hostbench

#endif // HOSTBENCH_PROBES_HH
