/**
 * @file
 * The five-function OS interface to PageForge (Table 1).
 *
 * This is the architectural boundary of the design: everything below
 * it is hardware (the module and Scan Table), everything above is
 * software policy. Each call models an uncached MMIO access, so the
 * driver can charge the invoking core a fixed cost per call.
 */

#ifndef PF_CORE_PAGEFORGE_API_HH
#define PF_CORE_PAGEFORGE_API_HH

#include "core/pageforge_module.hh"

namespace pageforge
{

/** Snapshot returned by get_PFE_info. */
struct PfeInfo
{
    bool scanned = false;
    bool duplicate = false;
    bool hashReady = false;
    std::uint32_t hash = 0;
    ScanIndex ptr = scanIndexNone;
};

/** The OS-visible PageForge interface. */
class PageForgeApi
{
  public:
    explicit PageForgeApi(PageForgeModule &module);

    /**
     * Fill an Other Pages entry at @p index with a page and its
     * Less/More successor indices.
     */
    void insertPpn(unsigned index, FrameId ppn, ScanIndex less,
                   ScanIndex more);

    /**
     * Fill the PFE with a new candidate page and start the scan.
     * Loading a new candidate resets the background hash key.
     */
    void insertPfe(FrameId ppn, bool last_refill, ScanIndex ptr);

    /**
     * Point the (unchanged) candidate at a refilled batch and restart
     * the scan.
     */
    void updatePfe(bool last_refill, ScanIndex ptr);

    /** Read the S/D/H bits, Ptr, and the hash key. */
    PfeInfo getPfeInfo() const;

    /** Reconfigure the page offsets used for ECC hash keys. */
    void updateEccOffset(const EccOffsets &offsets);

    /** Number of Other Pages entries in the hardware. */
    unsigned tableEntries() const;

    /** Uncached-register access cost charged per API call. */
    static constexpr Tick callCycles = 12;

    /**
     * In synchronous mode insert_PFE/update_PFE do not self-trigger;
     * the caller runs the module with processNow(). Used for warm-up
     * fast-forward and deterministic tests.
     */
    void setSynchronous(bool sync) { _synchronous = sync; }
    bool synchronous() const { return _synchronous; }

    /** API calls made so far (drives driver-overhead accounting). */
    std::uint64_t calls() const { return _calls.value(); }

    PageForgeModule &module() { return _module; }

  private:
    PageForgeModule &_module;
    Counter _calls;
    bool _synchronous = false;
};

} // namespace pageforge

#endif // PF_CORE_PAGEFORGE_API_HH
