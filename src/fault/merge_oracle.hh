/**
 * @file
 * End-to-end merge oracle: the shadow check that proves the system's
 * core safety invariant under fault injection.
 *
 * At every merge commit the hypervisor (when an oracle is installed)
 * hands the candidate's and target's full backing data to check().
 * The oracle does an independent whole-page memcmp against the
 * functional arena — the simulator's ground truth, which injected
 * faults never touch (they live on the modelled read path) — so a
 * corrupted key, a poisoned table entry, or a racing write steering
 * the machinery toward a wrong merge is caught here no matter what
 * the layers above concluded.
 */

#ifndef PF_FAULT_MERGE_ORACLE_HH
#define PF_FAULT_MERGE_ORACLE_HH

#include <cstdint>
#include <cstring>

#include "sim/types.hh"

namespace pageforge
{

/** Commit-time shadow comparator; see file comment. */
class MergeOracle
{
  public:
    /**
     * Record one commit-time check of two pages about to be merged.
     * @param cross_mc the two frames home on different memory
     *        controllers — a handoff commit landing on a remote shard,
     *        which must satisfy the same byte-identity invariant
     * @return true when the pages are byte-identical
     */
    bool
    check(const std::uint8_t *candidate, const std::uint8_t *target,
          bool cross_mc = false)
    {
        ++_checks;
        if (cross_mc)
            ++_crossMcChecks;
        if (std::memcmp(candidate, target, pageSize) == 0)
            return true;
        ++_violations;
        return false;
    }

    /** Merge commits inspected. */
    std::uint64_t checks() const { return _checks; }

    /** Inspected commits whose frames homed on different MCs. */
    std::uint64_t crossMcChecks() const { return _crossMcChecks; }

    /** Commits where the pages differed (must stay zero, always). */
    std::uint64_t violations() const { return _violations; }

  private:
    std::uint64_t _checks = 0;
    std::uint64_t _crossMcChecks = 0;
    std::uint64_t _violations = 0;
};

} // namespace pageforge

#endif // PF_FAULT_MERGE_ORACLE_HH
