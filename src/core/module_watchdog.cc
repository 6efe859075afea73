#include "core/module_watchdog.hh"

#include <utility>

#include "core/pageforge_driver.hh"
#include "core/pageforge_module.hh"
#include "fault/mc_health.hh"
#include "shard/shard_map.hh"
#include "sim/logging.hh"

namespace pageforge
{

ModuleWatchdog::ModuleWatchdog(std::string name, EventQueue &eq,
                               const WatchdogConfig &config,
                               PageForgeDriver &driver, ShardMap &map,
                               McHealthMonitor &health)
    : SimObject(std::move(name), eq), _config(config), _driver(driver),
      _shardMap(map), _health(health)
{
    pf_assert(_config.heartbeatInterval > 0,
              "watchdog heartbeat must be positive");
    pf_assert(_config.wedgeThreshold > 0,
              "watchdog wedge threshold must be positive");
}

void
ModuleWatchdog::watchModule(PageForgeModule &module)
{
    pf_assert(!_running, "adding a watch to a running watchdog");
    Watch watch;
    watch.module = &module;
    _watches.push_back(watch);
}

void
ModuleWatchdog::start()
{
    pf_assert(!_watches.empty(), "watchdog with nothing to watch");
    _running = true;
    for (Watch &w : _watches)
        w.lastCompletions = w.module->batchesCompleted();
    eventq().schedule(curTick() + _config.heartbeatInterval,
                      [this] { beat(); });
}

void
ModuleWatchdog::beat()
{
    if (!_running)
        return;

    for (unsigned shard = 0; shard < _watches.size(); ++shard) {
        Watch &w = _watches[shard];
        if (w.down)
            continue; // already in the recovery sequence
        std::uint64_t completions = w.module->batchesCompleted();
        if (w.module->busy() && completions == w.lastCompletions) {
            ++w.stagnant;
        } else {
            w.stagnant = 0;
        }
        w.lastCompletions = completions;
        if (w.stagnant >= _config.wedgeThreshold)
            handleWedge(shard);
    }

    eventq().schedule(curTick() + _config.heartbeatInterval,
                      [this] { beat(); });
}

void
ModuleWatchdog::handleWedge(unsigned shard)
{
    Watch &w = _watches[shard];
    ++_wedgesDetected;
    ++w.wedges;
    w.down = true;
    w.stagnant = 0;
    probe().instant("mc-wedge-detected", curTick(),
                    {"mc", static_cast<double>(shard)});
    pf_warn(Fault, "mc%u module wedged (%llu heartbeats stalled); "
                   "quarantining",
            shard,
            static_cast<unsigned long long>(_config.wedgeThreshold));

    _health.transition(shard, McHealth::Quarantined,
                       "module wedge detected");

    // Fail the shard's content-prefix range and scan duties over to
    // the next unquarantined shard. With no such survivor (a one-MC
    // machine, or every other shard already failed over) the pipeline
    // just pauses in place until the module restart completes.
    bool survivor = false;
    for (unsigned other = 0; other < _shardMap.numShards(); ++other)
        survivor |= other != shard && !_shardMap.quarantined(other);
    if (survivor) {
        unsigned takeover = _shardMap.quarantine(shard);
        ++_failovers;
        probe().instant("mc-failover", curTick(),
                        {"mc", static_cast<double>(shard)},
                        {"takeover", static_cast<double>(takeover)});
        pf_inform(Fault, "mc%u prefix range re-homed to mc%u", shard,
                  takeover);
    }

    // Quiesce after the failover so queued work forwards to the
    // reassigned owner, then restart the hardware.
    _driver.quiesceShard(shard);
    w.module->forceReset();
    ++_restarts;
    _driver.onModuleRestarted(shard);

    eventq().schedule(curTick() + _config.recoveryDelay,
                      [this, shard] { enterRecovering(shard); });
}

void
ModuleWatchdog::enterRecovering(unsigned shard)
{
    if (!_running)
        return;
    probe().instant("mc-recovering", curTick(),
                    {"mc", static_cast<double>(shard)});
    _health.transition(shard, McHealth::Recovering, "module restarted");
    eventq().schedule(curTick() + _config.readmitDelay,
                      [this, shard] { readmit(shard); });
}

void
ModuleWatchdog::readmit(unsigned shard)
{
    if (!_running)
        return;
    Watch &w = _watches[shard];
    // Quarantined exactly when handleWedge failed the shard over.
    if (_shardMap.quarantined(shard))
        _shardMap.readmit(shard);
    ++_readmissions;
    _driver.resumeShard(shard);
    w.down = false;
    w.stagnant = 0;
    w.lastCompletions = w.module->batchesCompleted();
    probe().instant("mc-readmitted", curTick(),
                    {"mc", static_cast<double>(shard)});
    pf_inform(Fault, "mc%u re-admitted after recovery", shard);
    _health.transition(shard, McHealth::Healthy, "re-admitted");
}

} // namespace pageforge
