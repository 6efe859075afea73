/**
 * @file
 * Scan-progress watchdog over the fleet's PageForge modules.
 *
 * A wedged module (fault class `mcwedge`) raises Busy and then stops:
 * no completion ever lands, and the driver's check poll spins forever.
 * The watchdog samples every module's completion counter on a
 * heartbeat; a module that stays busy across `wedgeThreshold`
 * consecutive heartbeats without completing a batch is declared
 * wedged, and the watchdog drives the recovery sequence:
 *
 *   detect -> quarantine (fail the shard's prefix range over to the
 *   next healthy shard via ShardMap) -> quiesce the driver pipeline
 *   and drain its in-flight batch through the abort-flush guard ->
 *   force-reset the module -> after recoveryDelay enter Recovering ->
 *   after readmitDelay restore ownership and resume scanning.
 *
 * Each step moves the shard's McHealthMonitor state: Quarantined at
 * detection, Recovering after the restart, Healthy at re-admission.
 * Constructed only when a fault campaign is armed — fault-free runs
 * never build one.
 */

#ifndef PF_CORE_MODULE_WATCHDOG_HH
#define PF_CORE_MODULE_WATCHDOG_HH

#include <vector>

#include "sim/sim_object.hh"

namespace pageforge
{

class McHealthMonitor;
class PageForgeModule;
class PageForgeDriver;
class ShardMap;

/** Detection and recovery pacing. */
struct WatchdogConfig
{
    /** Heartbeat sampling period in ticks. */
    Tick heartbeatInterval = 250000;

    /**
     * Consecutive busy-without-completion heartbeats that declare a
     * wedge. interval * threshold must comfortably exceed the longest
     * legitimate batch walk.
     */
    unsigned wedgeThreshold = 4;

    /** Quarantined -> Recovering delay after the module restart. */
    Tick recoveryDelay = 500000;

    /** Recovering -> Healthy (re-admission) delay. */
    Tick readmitDelay = 500000;
};

/** Detects wedged modules and drives quiesce/restart/failover. */
class ModuleWatchdog : public SimObject
{
  public:
    /**
     * @param driver driver whose pipelines are quiesced/resumed on
     *        failover
     * @param map owner overlay mutated on quarantine/re-admission
     * @param health per-MC health states the recovery steps move
     */
    ModuleWatchdog(std::string name, EventQueue &eq,
                   const WatchdogConfig &config, PageForgeDriver &driver,
                   ShardMap &map, McHealthMonitor &health);

    /** Register one module per shard, in shard order, before start(). */
    void watchModule(PageForgeModule &module);

    /** Begin heartbeat sampling. */
    void start();

    /** Stop; pending heartbeat/recovery events become no-ops. */
    void stop() { _running = false; }

    const WatchdogConfig &config() const { return _config; }

    std::uint64_t wedgesDetected() const { return _wedgesDetected; }
    std::uint64_t moduleRestarts() const { return _restarts; }
    std::uint64_t failovers() const { return _failovers; }
    std::uint64_t readmissions() const { return _readmissions; }

    /** Wedges detected on one shard's module. */
    std::uint64_t wedgesOn(unsigned shard) const
    {
        return _watches[shard].wedges;
    }

    /** Is this shard currently held down (quarantine or recovery)? */
    bool shardDown(unsigned shard) const
    {
        return _watches[shard].down;
    }

  private:
    struct Watch
    {
        PageForgeModule *module = nullptr;
        std::uint64_t lastCompletions = 0;
        unsigned stagnant = 0;      //!< busy heartbeats w/o completion
        bool down = false;          //!< quarantined or recovering
        std::uint64_t wedges = 0;
    };

    void beat();
    void handleWedge(unsigned shard);
    void enterRecovering(unsigned shard);
    void readmit(unsigned shard);

    WatchdogConfig _config;
    std::vector<Watch> _watches;
    PageForgeDriver &_driver;
    ShardMap &_shardMap;
    McHealthMonitor &_health;
    bool _running = false;

    std::uint64_t _wedgesDetected = 0;
    std::uint64_t _restarts = 0;
    std::uint64_t _failovers = 0;
    std::uint64_t _readmissions = 0;
};

} // namespace pageforge

#endif // PF_CORE_MODULE_WATCHDOG_HH
