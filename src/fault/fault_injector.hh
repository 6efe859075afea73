/**
 * @file
 * The fault injector: a seeded, RNG-driven SimObject that schedules
 * DRAM bit flips, Scan Table corruptions, and merge-time races from a
 * FaultConfig.
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

#include <functional>
#include <vector>

#include "ecc/ecc_hash_key.hh"
#include "fault/fault_config.hh"
#include "hyper/hypervisor.hh"
#include "mem/mem_controller.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"

namespace pageforge
{

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
     */
    FaultInjector(std::string name, EventQueue &eq,
                  std::vector<MemController *> mcs, Hypervisor &hyper,
                  const FaultConfig &config, std::uint64_t stream_seed);

    /** Begin scheduling fault events (no-op for all-zero rates). */
    void start();

    /** Stop scheduling; already-queued events become no-ops. */
    void stop();

    /**
     * Provider of the currently-sampled ECC offsets, so
     * minikey-targeted flips track update_ECC_offset rotations.
     */
    void
    setEccOffsetsProvider(std::function<EccOffsets()> fn)
    {
        _offsetsOf = std::move(fn);
    }

    /**
     * Hook that corrupts one live Scan Table entry, returning true
     * when it garbled something. Wired by the System in PageForge
     * mode; draws from the RNG it is handed for determinism.
     */
    void
    setScanTableCorruptor(std::function<bool(Rng &)> fn)
    {
        _corruptTable = std::move(fn);
    }

    /**
     * Hook that wedges one PageForge module's FSM, returning true
     * when it hung something (false when every module is already
     * wedged or held down). Wired by the System in PageForge mode;
     * draws from the RNG it is handed for determinism. The fault
     * class `mcwedge` schedules these as a Poisson stream.
     */
    void
    setModuleWedger(std::function<bool(Rng &)> fn)
    {
        _wedgeModule = std::move(fn);
    }

    /**
     * Hooks bracketing a channel brownout window (fault class
     * `brownout`). The start hook picks a victim channel, applies the
     * latency multiplier and the Healthy -> Degraded transition, and
     * returns the channel index (or a negative value when no channel
     * is eligible). The end hook restores the channel after
     * FaultConfig::brownoutMs of simulated time.
     */
    void
    setBrownoutHooks(std::function<int(Rng &)> begin,
                     std::function<void(unsigned)> end)
    {
        _beginBrownout = std::move(begin);
        _endBrownout = std::move(end);
    }

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

    std::function<EccOffsets()> _offsetsOf;
    std::function<bool(Rng &)> _corruptTable;
    std::function<bool(Rng &)> _wedgeModule;
    std::function<int(Rng &)> _beginBrownout;
    std::function<void(unsigned)> _endBrownout;
    FaultInjectStats _stats;

    /** Mean ticks between DRAM flip events at the configured rate. */
    double meanFlipIntervalTicks() const;

    /** Controller homing @p frame under the channel interleave. */
    MemController &
    mcOf(FrameId frame)
    {
        return *_mcs[frame % _mcs.size()];
    }

    void scheduleFlip();
    void injectFlip();
    void scheduleTableCorruption();
    void corruptTableEntry();
    void scheduleWedge();
    void injectWedge();
    void scheduleBrownout();
    void beginBrownout();
};

} // namespace pageforge

#endif // PF_FAULT_FAULT_INJECTOR_HH
