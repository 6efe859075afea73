#include "core/pageforge_api.hh"

namespace pageforge
{

PageForgeApi::PageForgeApi(PageForgeModule &module) : _module(module)
{
}

void
PageForgeApi::insertPpn(unsigned index, FrameId ppn, ScanIndex less,
                        ScanIndex more)
{
    ++_calls;
    _module.table().setOther(index, ppn, less, more);
}

void
PageForgeApi::insertPfe(FrameId ppn, bool last_refill, ScanIndex ptr)
{
    ++_calls;
    _module.table().setPfe(ppn, last_refill, ptr);
    _module.beginCandidate();
    if (!_synchronous)
        _module.trigger();
}

void
PageForgeApi::updatePfe(bool last_refill, ScanIndex ptr)
{
    ++_calls;
    _module.table().updatePfe(last_refill, ptr);
    if (!_synchronous)
        _module.trigger();
}

PfeInfo
PageForgeApi::getPfeInfo() const
{
    const PfeEntry &pfe = _module.table().pfe();
    return PfeInfo{pfe.scanned, pfe.duplicate, pfe.hashReady, pfe.hash,
                   pfe.ptr};
}

void
PageForgeApi::updateEccOffset(const EccOffsets &offsets)
{
    ++_calls;
    _module.setEccOffsets(offsets);
}

unsigned
PageForgeApi::tableEntries() const
{
    return _module.table().numOtherPages();
}

} // namespace pageforge
