#include "mem/dram_model.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace pageforge
{

BandwidthTracker::BandwidthTracker(Tick window) : _window(window)
{
    pf_assert(window > 0, "zero bandwidth window");
}

BandwidthTracker::Window &
BandwidthTracker::windowAt(std::size_t idx)
{
    std::size_t c = idx / chunkWindows;
    if (c >= _chunks.size())
        _chunks.resize(c + 1);
    if (!_chunks[c])
        _chunks[c] = std::make_unique<WindowChunk>();
    return (*_chunks[c])[idx % chunkWindows];
}

void
BandwidthTracker::record(Tick now, std::uint32_t bytes, Requester req)
{
    // In-flight work issued before a reset may complete just after
    // it; fold such stragglers into the first window.
    std::size_t idx = now >= _baseTick
        ? static_cast<std::size_t>((now - _baseTick) / _window)
        : 0;
    Window &w = windowAt(idx);
    w.total += bytes;
    w.perReq[static_cast<unsigned>(req)] += bytes;
    _reqTotals[static_cast<unsigned>(req)] += bytes;
}

double
BandwidthTracker::bytesToGBps(std::uint64_t bytes) const
{
    double secs = ticksToSec(_window);
    return static_cast<double>(bytes) / secs / 1e9;
}

double
BandwidthTracker::meanGBps(Tick from, Tick to) const
{
    if (to <= from)
        return 0.0;
    from = std::max(from, _baseTick);
    std::size_t lo = static_cast<std::size_t>((from - _baseTick) / _window);
    std::size_t hi = static_cast<std::size_t>((to - _baseTick) / _window);
    std::uint64_t bytes = 0;
    for (std::size_t c = lo / chunkWindows;
         c < _chunks.size() && c <= hi / chunkWindows; ++c) {
        if (!_chunks[c])
            continue;
        std::size_t first = std::max(lo, c * chunkWindows);
        std::size_t last =
            std::min(hi, c * chunkWindows + (chunkWindows - 1));
        for (std::size_t i = first; i <= last; ++i)
            bytes += (*_chunks[c])[i % chunkWindows].total;
    }
    double secs = ticksToSec(to - from);
    return static_cast<double>(bytes) / secs / 1e9;
}

double
BandwidthTracker::peakGBps() const
{
    std::uint64_t peak = 0;
    for (const auto &chunk : _chunks) {
        if (!chunk)
            continue;
        for (const Window &w : *chunk)
            peak = std::max(peak, w.total);
    }
    return bytesToGBps(peak);
}

double
BandwidthTracker::peakGBpsWhenActive(Requester req) const
{
    std::uint64_t peak = 0;
    for (const auto &chunk : _chunks) {
        if (!chunk)
            continue;
        for (const Window &w : *chunk) {
            if (w.perReq[static_cast<unsigned>(req)] > 0)
                peak = std::max(peak, w.total);
        }
    }
    return bytesToGBps(peak);
}

std::uint64_t
BandwidthTracker::totalBytes(Requester req) const
{
    return _reqTotals[static_cast<unsigned>(req)];
}

void
BandwidthTracker::reset(Tick anchor)
{
    _chunks.clear();
    for (auto &total : _reqTotals)
        total = 0;
    _baseTick = anchor;
}

DramModel::DramModel(const DramConfig &config)
    : _config(config), _banks(config.totalBanks()),
      _channels(config.channels), _stats("dram")
{
    _stats.addCounter("reads", "line reads serviced", _reads);
    _stats.addCounter("writes", "line writes serviced", _writes);
    _stats.addCounter("row_hits", "row buffer hits", _rowHits);
    _stats.addCounter("row_misses", "row buffer misses", _rowMisses);
}

unsigned
DramModel::channelIndex(Addr line_addr) const
{
    return static_cast<unsigned>((line_addr / lineSize) % _config.channels);
}

unsigned
DramModel::bankIndex(Addr line_addr) const
{
    std::uint64_t line = line_addr / lineSize;
    std::uint64_t per_channel = line / _config.channels;
    unsigned banks_per_channel =
        _config.ranksPerChannel * _config.banksPerRank;
    unsigned bank_in_channel =
        static_cast<unsigned>(per_channel % banks_per_channel);
    return channelIndex(line_addr) * banks_per_channel + bank_in_channel;
}

std::uint64_t
DramModel::rowIndex(Addr line_addr) const
{
    std::uint64_t line = line_addr / lineSize;
    std::uint64_t per_channel = line / _config.channels;
    unsigned banks_per_channel =
        _config.ranksPerChannel * _config.banksPerRank;
    std::uint64_t per_bank = per_channel / banks_per_channel;
    return per_bank / (_config.rowBytes / lineSize);
}

void
DramModel::resetTiming()
{
    for (auto &bank : _banks)
        bank.readyAt = 0;
    for (auto &channel : _channels)
        channel.busFreeAt = 0;
}

Tick
DramModel::access(Addr line_addr, Tick now, bool is_write, Requester req)
{
    Bank &bank = _banks[bankIndex(line_addr)];
    Channel &channel = _channels[channelIndex(line_addr)];
    std::uint64_t row = rowIndex(line_addr);

    // Occupancy beyond the queue horizon is invisible to this
    // request (see DramConfig::queueHorizon).
    Tick horizon = now + _config.queueHorizon;
    Tick start = std::max(now, std::min(bank.readyAt, horizon));

    Tick array_lat;
    if (bank.openRow == row) {
        array_lat = _config.tCas;
        ++_rowHits;
    } else {
        array_lat = _config.tRp + _config.tRcd + _config.tCas;
        bank.openRow = row;
        ++_rowMisses;
    }

    // Data burst occupies the channel bus after the array access.
    Tick data_start = std::max(start + array_lat,
                               std::min(channel.busFreeAt, horizon));
    Tick done = data_start + _config.tBurst;
    channel.busFreeAt = std::max(channel.busFreeAt, done);
    bank.readyAt = std::max(bank.readyAt, data_start);

    if (is_write)
        ++_writes;
    else
        ++_reads;
    _bandwidth.record(done, lineSize, req);
    return done;
}

} // namespace pageforge
