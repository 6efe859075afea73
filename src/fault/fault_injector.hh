/**
 * @file
 * The fault injector: a seeded, RNG-driven SimObject that schedules
 * DRAM bit flips, Scan Table corruptions, merge-time races, module
 * wedges and channel brownouts from a FaultConfig, acting directly on
 * the memory controllers, PageForge modules and per-MC health.
 *
 * Determinism contract: the injector draws exclusively from its own
 * dedicated RNG stream (derived from the experiment seed like every
 * other component's stream), and with a default FaultConfig it
 * schedules no events and injects nothing — fault-free runs stay
 * bit-identical to a simulator without the subsystem. Under faults,
 * the same seed and spec reproduce the exact same fault sequence.
 */

#ifndef PF_FAULT_FAULT_INJECTOR_HH
#define PF_FAULT_FAULT_INJECTOR_HH

#include <vector>

#include "ecc/ecc_hash_key.hh"
#include "fault/fault_config.hh"
#include "hyper/hypervisor.hh"
#include "mem/mem_controller.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"

namespace pageforge
{

class McHealthMonitor;
class ModuleWatchdog;
class PageForgeDriver;
class PageForgeModule;

/** Everything the injector did to the run (inputs, not outcomes). */
struct FaultInjectStats
{
    std::uint64_t flipEvents = 0;       //!< DRAM corruption events
    std::uint64_t singleBitFlips = 0;   //!< events upsetting one bit
    std::uint64_t doubleBitFlips = 0;   //!< events upsetting two bits
    std::uint64_t stuckAtFaults = 0;    //!< events made persistent
    std::uint64_t minikeyTargeted = 0;  //!< aimed at a sampled line
    std::uint64_t tableCorruptions = 0; //!< Scan Table PPNs garbled
    std::uint64_t raceWrites = 0;       //!< injected mid-merge writes
    std::uint64_t skippedNoTarget = 0;  //!< no allocated frame found
    std::uint64_t mcWedges = 0;         //!< PageForge modules wedged
    std::uint64_t brownouts = 0;        //!< channel brownout windows
};

/** The fault injector. */
class FaultInjector : public SimObject
{
  public:
    /**
     * @param mcs every memory controller, in channel order. Flips are
     *        injected through the controller homing the picked frame
     *        (frame % numMcs, the ShardMap interleave), so the fault
     *        lands on the owning channel's read path. The
     *        victim-selection RNG sequence is unchanged by the number
     *        of controllers.
     * @param stream_seed dedicated RNG stream seed (the System derives
     *        it from the experiment seed and the config's extra seed)
     * @param modules PageForge modules in shard order, the targets of
     *        Scan Table upsets and wedges (empty outside PageForge
     *        mode: those classes then inject nothing)
     * @param driver PageForge driver whose sampled ECC offsets aim the
     *        minikey-targeted flips (null: the default offsets)
     * @param watchdog required when `mcwedge` fires on modules: a
     *        shard it holds down is not wedged again
     * @param health per-MC health, required when `brownout` fires
     */
    FaultInjector(std::string name, EventQueue &eq,
                  std::vector<MemController *> mcs, Hypervisor &hyper,
                  const FaultConfig &config, std::uint64_t stream_seed,
                  std::vector<PageForgeModule *> modules = {},
                  const PageForgeDriver *driver = nullptr,
                  const ModuleWatchdog *watchdog = nullptr,
                  McHealthMonitor *health = nullptr);

    /** Begin scheduling fault events (no-op for all-zero rates). */
    void start();

    /** Stop scheduling; already-queued events become no-ops. */
    void stop();

    /**
     * Called by the PageForge driver between a batch match and the
     * merge commit: with probability FaultConfig::mergeRaceProb a
     * real guest write lands on the candidate page right now —
     * exactly the race the write-versioning check must catch.
     * @return true when a racing write was injected
     */
    bool maybeInjectMergeRace(const PageKey &candidate);

    const FaultConfig &config() const { return _config; }
    const FaultInjectStats &stats() const { return _stats; }

  private:
    std::vector<MemController *> _mcs; //!< one per channel, in order
    Hypervisor &_hyper;
    FaultConfig _config;
    Rng _rng;
    bool _running = false;

    std::vector<PageForgeModule *> _modules; //!< one per shard, in order
    const PageForgeDriver *_driver;
    const ModuleWatchdog *_watchdog;
    McHealthMonitor *_health;
    FaultInjectStats _stats;

    /** Mean ticks between DRAM flip events at the configured rate. */
    double meanFlipIntervalTicks() const;

    /** Controller homing @p frame under the channel interleave. */
    MemController &
    mcOf(FrameId frame)
    {
        return *_mcs[frame % _mcs.size()];
    }

    /**
     * Index of the victim among @p n targets. A single target takes
     * no draw, so adding controllers never perturbs a 1-MC machine's
     * fault stream.
     */
    std::size_t
    pickTarget(std::size_t n)
    {
        return n == 1 ? 0 : static_cast<std::size_t>(_rng.nextBounded(n));
    }

    void scheduleFlip();
    void injectFlip();
    void scheduleTableCorruption();
    void corruptTableEntry();
    void scheduleWedge();
    void injectWedge();
    void scheduleBrownout();
    void beginBrownout();
    void endBrownout(unsigned mc);
};

} // namespace pageforge

#endif // PF_FAULT_FAULT_INJECTOR_HH
