#include "cpu/scheduler.hh"

#include "sim/logging.hh"

namespace pageforge
{

KsmScheduler::KsmScheduler(std::string name, EventQueue &eq,
                           unsigned num_cores, KsmPlacement policy,
                           double stickiness, Rng rng)
    : SimObject(std::move(name), eq), _numCores(num_cores),
      _policy(policy), _stickiness(stickiness), _rng(rng),
      _placements(num_cores, 0)
{
    pf_assert(num_cores > 0, "scheduler with no cores");
    // 1.0 is valid: chance(1.0) always holds, so a Sticky scheduler
    // never leaves its first pick.
    pf_assert(stickiness >= 0.0 && stickiness <= 1.0,
              "stickiness must be in [0, 1]");
}

CoreId
KsmScheduler::pickCore()
{
    switch (_policy) {
      case KsmPlacement::Sticky:
        if (_first || !_rng.chance(_stickiness)) {
            _current = static_cast<CoreId>(_rng.nextBounded(_numCores));
        }
        break;
      case KsmPlacement::RoundRobin:
        _current = _first
            ? 0
            : static_cast<CoreId>((_current + 1) % _numCores);
        break;
      case KsmPlacement::Random:
        _current = static_cast<CoreId>(_rng.nextBounded(_numCores));
        break;
      case KsmPlacement::Pinned:
        _current = static_cast<CoreId>(_numCores - 1);
        break;
    }
    _first = false;
    ++_placements[_current];
    return _current;
}

} // namespace pageforge
