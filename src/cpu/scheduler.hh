/**
 * @file
 * OS scheduler model for the ksmd kernel thread.
 *
 * "KSM utilizes a single worker thread that is scheduled as a
 * background kernel task on any core in the system" (Section 2.1), and
 * the Linux scheduler keeps migrating it: Table 4 reports an average
 * of 6.8% of cycles across cores but up to 33.4% on the most-used
 * core. A sticky-random policy reproduces that skew: the thread stays
 * on its current core with some probability and otherwise migrates to
 * a uniformly random core.
 */

#ifndef PF_CPU_SCHEDULER_HH
#define PF_CPU_SCHEDULER_HH

#include <vector>

#include "sim/rng.hh"
#include "sim/sim_object.hh"

namespace pageforge
{

/** How the ksmd thread is placed at each work interval. */
enum class KsmPlacement
{
    Sticky,     //!< stay with probability p, else migrate uniformly
    RoundRobin, //!< rotate deterministically
    Random,     //!< uniformly random every interval
    Pinned,     //!< always the last core (the "dedicated core" deployment)
};

/** Picks the core that runs the next ksmd work chunk. */
class KsmScheduler : public SimObject
{
  public:
    KsmScheduler(std::string name, EventQueue &eq, unsigned num_cores,
                 KsmPlacement policy, double stickiness, Rng rng);

    /** Choose the core for the next work interval. */
    CoreId pickCore();

    /** Number of intervals each core has been chosen (for tests). */
    const std::vector<std::uint64_t> &placements() const {
        return _placements;
    }

  private:
    unsigned _numCores;
    KsmPlacement _policy;
    double _stickiness;
    Rng _rng;
    CoreId _current = 0;
    bool _first = true;
    std::vector<std::uint64_t> _placements;
};

} // namespace pageforge

#endif // PF_CPU_SCHEDULER_HH
