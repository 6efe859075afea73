/**
 * @file
 * DDR-style DRAM timing model (a compact DRAMSim2 stand-in).
 *
 * Models the Table 2 main memory: 2 channels, 8 ranks/channel,
 * 8 banks/rank, 1 GHz DDR. Banks keep an open row; accesses pay
 * CAS-only latency on row hits and precharge+activate+CAS on row
 * misses, plus burst occupancy on the channel data bus. Lines are
 * interleaved across channels and banks for memory-level parallelism.
 *
 * The model is lazily evaluated against absolute ticks instead of
 * scheduling per-beat events, which keeps the event count low while
 * still providing bank/channel contention between concurrent request
 * streams (cores vs. ksmd vs. PageForge).
 */

#ifndef PF_MEM_DRAM_MODEL_HH
#define PF_MEM_DRAM_MODEL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/request.hh"
#include "sim/types.hh"
#include "stats/stat_group.hh"

namespace pageforge
{

/** Geometry and timing parameters of main memory. */
struct DramConfig
{
    unsigned channels = 2;        //!< Table 2: 2 channels
    unsigned ranksPerChannel = 8; //!< Table 2: 8 ranks/channel
    unsigned banksPerRank = 8;    //!< Table 2: 8 banks/rank
    unsigned rowBytes = 8192;     //!< row buffer size per bank

    // Timings in CPU ticks (2 GHz core, 1 GHz DDR memory: one memory
    // cycle is two core ticks).
    Tick tCas = 28;      //!< column access on an open row
    Tick tRcd = 28;      //!< activate (row open)
    Tick tRp = 28;       //!< precharge (row close)
    Tick tBurst = 8;     //!< 64 B burst on the channel data bus
    Tick frontendLat = 20; //!< controller queueing/decode overhead

    /**
     * Contention horizon: a request issued at tick T waits for bank /
     * channel occupancy only within [T, T + queueHorizon]. Cores and
     * daemons walk their work synchronously ahead of the global
     * clock, so without this bound one walker's future requests would
     * serialize another walker's present ones (leapfrog runaway).
     * Physically this caps the modelled controller queue depth.
     */
    Tick queueHorizon = 512;

    /** Banks across the whole machine. */
    unsigned
    totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }
};

/** Tracks transferred bytes in fixed windows to find peak bandwidth. */
class BandwidthTracker
{
  public:
    explicit BandwidthTracker(Tick window = msToTicks(0.1));

    /** Account @p bytes transferred at @p now by @p req. */
    void record(Tick now, std::uint32_t bytes, Requester req);

    /** Mean bandwidth in GB/s between two ticks of interest. */
    double meanGBps(Tick from, Tick to) const;

    /** Peak windowed total bandwidth in GB/s. */
    double peakGBps() const;

    /**
     * Peak windowed bandwidth restricted to windows where the given
     * requester is active (used for "the most memory-intensive phase
     * of page deduplication", Figure 11).
     */
    double peakGBpsWhenActive(Requester req) const;

    /** Total bytes attributed to a requester class. */
    std::uint64_t totalBytes(Requester req) const;

    /**
     * Discard all recorded history and re-anchor window 0 at
     * @p anchor (the start of the measurement window). Stragglers
     * recorded before the anchor are folded into window 0.
     */
    void reset(Tick anchor = 0);

  private:
    struct Window
    {
        std::uint64_t total = 0;
        std::uint64_t perReq[numRequesters] = {};
    };

    /**
     * Windows live in lazily-allocated fixed-size chunks indexed by
     * window number. Warm-up fast-forwards advance local clocks far
     * into the virtual future, so the window index space is sparse
     * with huge gaps; a dense vector spent more time zero-filling gap
     * windows than the DRAM model spent on everything else. A null
     * chunk reads as chunkWindows all-zero windows, which every
     * consumer already ignores (zero totals add nothing to sums,
     * maxima, or "active" window counts).
     */
    static constexpr std::size_t chunkWindows = 1024;
    using WindowChunk = std::array<Window, chunkWindows>;

    Tick _window;
    std::vector<std::unique_ptr<WindowChunk>> _chunks;
    std::uint64_t _reqTotals[numRequesters] = {};
    Tick _baseTick = 0;

    /** The window at @p idx, materializing its chunk if needed. */
    Window &windowAt(std::size_t idx);

    double bytesToGBps(std::uint64_t bytes) const;
};

/** The banked DRAM timing model. */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config);

    /**
     * Perform a 64 B line access.
     *
     * @param line_addr line-aligned physical address
     * @param now request arrival tick at the DRAM (post frontend)
     * @param is_write write (true) or read (false)
     * @param req requester class for bandwidth attribution
     * @return tick at which the data transfer completes
     */
    Tick access(Addr line_addr, Tick now, bool is_write, Requester req);

    const DramConfig &config() const { return _config; }
    BandwidthTracker &bandwidth() { return _bandwidth; }
    const BandwidthTracker &bandwidth() const { return _bandwidth; }

    std::uint64_t reads() const { return _reads.value(); }
    std::uint64_t writes() const { return _writes.value(); }
    std::uint64_t rowHits() const { return _rowHits.value(); }
    std::uint64_t rowMisses() const { return _rowMisses.value(); }

    StatGroup &stats() { return _stats; }

    /** Map a line address to its bank index (for tests). */
    unsigned bankIndex(Addr line_addr) const;

    /** Map a line address to its channel (for tests). */
    unsigned channelIndex(Addr line_addr) const;

    /** Map a line address to its row within the bank (for tests). */
    std::uint64_t rowIndex(Addr line_addr) const;

    /**
     * Clear bank/channel availability (keep open rows). Used after a
     * synchronous warm-up fast-forward, whose locally-advanced clocks
     * would otherwise leave availability far in the virtual future.
     */
    void resetTiming();

  private:
    struct Bank
    {
        std::uint64_t openRow = ~std::uint64_t(0);
        Tick readyAt = 0;
    };

    struct Channel
    {
        Tick busFreeAt = 0;
    };

    DramConfig _config;
    std::vector<Bank> _banks;
    std::vector<Channel> _channels;
    BandwidthTracker _bandwidth;

    Counter _reads;
    Counter _writes;
    Counter _rowHits;
    Counter _rowMisses;
    StatGroup _stats;
};

} // namespace pageforge

#endif // PF_MEM_DRAM_MODEL_HH
