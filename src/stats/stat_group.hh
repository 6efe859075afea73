/**
 * @file
 * Lightweight statistics framework.
 *
 * Components expose named scalar statistics through a StatGroup; the
 * experiment harness dumps them hierarchically. The design follows
 * gem5's stats package in spirit but is intentionally small.
 */

#ifndef PF_STATS_STAT_GROUP_HH
#define PF_STATS_STAT_GROUP_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace pageforge
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }

    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A named collection of statistics.
 *
 * Stats are registered as (name, description, getter) triples; the
 * getter is evaluated at dump time so derived statistics (rates,
 * ratios) can be registered alongside raw counters.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    /** Register a dump-time-evaluated scalar stat. */
    void addStat(std::string stat_name, std::string desc,
                 std::function<double()> getter);

    /** Register a counter by reference. */
    void addCounter(std::string stat_name, std::string desc,
                    const Counter &counter);

    /** Register a child group to dump after this group's own stats. */
    void addChild(const StatGroup &child);

    const std::string &name() const { return _name; }

    /** Write "group.stat value # desc" lines, gem5-style. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Look up a stat's current value by name; panics if absent. */
    double value(const std::string &stat_name) const;

    /** True when a stat with the given name is registered. */
    bool hasStat(const std::string &stat_name) const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::function<double()> getter;
    };

    std::string _name;
    std::vector<Entry> _entries;
    std::vector<const StatGroup *> _children;
};

} // namespace pageforge

#endif // PF_STATS_STAT_GROUP_HH
