#include "cache/cache.hh"

#include "sim/logging.hh"

namespace pageforge
{

const char *
mesiName(MesiState state)
{
    switch (state) {
      case MesiState::Invalid:
        return "I";
      case MesiState::Shared:
        return "S";
      case MesiState::Exclusive:
        return "E";
      case MesiState::Modified:
        return "M";
    }
    return "?";
}

Cache::Cache(const CacheConfig &config)
    : _config(config), _numSets(config.numSets()),
      _tags(static_cast<std::size_t>(_numSets) * config.ways, 0),
      _lastUsed(static_cast<std::size_t>(_numSets) * config.ways, 0),
      _stats(config.name)
{
    pf_assert(_numSets > 0, "cache '%s' has no sets",
              config.name.c_str());
    _setsPow2 = (_numSets & (_numSets - 1)) == 0;
    _stats.addCounter("hits", "demand hits", _hits);
    _stats.addCounter("misses", "demand misses", _misses);
    _stats.addCounter("evictions", "lines evicted", _evictions);
    _stats.addStat("miss_rate", "misses / accesses",
                   [this] { return 1.0 - hitRate(); });
}

Victim
Cache::insert(Addr line_addr, MesiState state)
{
    pf_assert(state != MesiState::Invalid, "inserting an invalid line");

    std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * _config.ways;
    std::uint32_t match =
        simd::findTagWay(_tags.data() + base, _config.ways, line_addr);
    if (match != simd::noWay) {
        // Refill of a resident line: just update state and recency.
        std::size_t idx = base + match;
        _tags[idx] = makeTag(line_addr, state);
        _lastUsed[idx] = ++_useClock;
        return {};
    }
    return fillAbsent(line_addr, state);
}

Victim
Cache::fillAbsent(Addr line_addr, MesiState state)
{
    pf_assert(state != MesiState::Invalid, "inserting an invalid line");

    // The first minimum stamp is the first invalid way (stamp 0),
    // else the LRU way.
    std::size_t base =
        static_cast<std::size_t>(setIndex(line_addr)) * _config.ways;
    std::size_t victim_idx =
        base + simd::argminU64(_lastUsed.data() + base, _config.ways);
    Victim victim;
    std::uint64_t old_tag = _tags[victim_idx];
    if (old_tag & stateMask) {
        victim.valid = true;
        victim.addr = old_tag & ~stateMask;
        victim.dirty = tagState(old_tag) == MesiState::Modified;
        ++_evictions;
        if (_residency)
            _residency->remove(victim.addr, _residencyWeight);
    }

    _tags[victim_idx] = makeTag(line_addr, state);
    _lastUsed[victim_idx] = ++_useClock;
    if (_residency)
        _residency->add(line_addr, _residencyWeight);
    return victim;
}

void
Cache::setState(Addr line_addr, MesiState state)
{
    std::size_t idx = findIdx(line_addr);
    pf_assert(idx != npos, "setState on absent line %llx in %s",
              static_cast<unsigned long long>(line_addr),
              _config.name.c_str());
    if (state == MesiState::Invalid) {
        _tags[idx] = 0;
        _lastUsed[idx] = 0;
        if (_residency)
            _residency->remove(line_addr, _residencyWeight);
    } else {
        _tags[idx] = makeTag(line_addr, state);
    }
}

bool
Cache::invalidate(Addr line_addr)
{
    std::size_t idx = findIdx(line_addr);
    if (idx == npos)
        return false;
    bool dirty = tagState(_tags[idx]) == MesiState::Modified;
    _tags[idx] = 0;
    _lastUsed[idx] = 0;
    if (_residency)
        _residency->remove(line_addr, _residencyWeight);
    return dirty;
}

std::size_t
Cache::residentLines() const
{
    std::size_t n = 0;
    for (std::uint64_t tag : _tags) {
        if (tag & stateMask)
            ++n;
    }
    return n;
}

double
Cache::hitRate() const
{
    std::uint64_t total = _hits.value() + _misses.value();
    return total ? static_cast<double>(_hits.value()) / total : 0.0;
}

void
Cache::resetStats()
{
    _hits.reset();
    _misses.reset();
    _evictions.reset();
}

} // namespace pageforge
