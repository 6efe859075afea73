#include "trace/trace_sink.hh"

#include <cinttypes>
#include <cstdio>

namespace pageforge
{

namespace
{

/**
 * Format a double for JSON: plain decimal, no exponent, finite only
 * (NaN/inf would break strict parsers — clamp to 0).
 */
void
appendNumber(std::ostream &os, double value)
{
    if (!(value == value) || value > 1e300 || value < -1e300)
        value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    // %g may produce an exponent for very small/large magnitudes;
    // those are still valid JSON numbers, so pass them through.
    os << buf;
}

} // namespace

TraceSink::TraceSink(std::ostream &os, std::uint32_t filter_mask)
    : _os(os), _mask(filter_mask & allComponentsMask)
{
    writeHeader();
}

TraceSink::~TraceSink()
{
    finish();
}

bool
TraceSink::wants(TraceComponent comp) const
{
    return !_finished && (_mask & componentBit(comp)) != 0;
}

void
TraceSink::writeHeader()
{
    _os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    // One thread_name metadata record per enabled component: this is
    // what names the tracks in Perfetto. tid 0 is reserved so tids
    // stay nonzero.
    for (unsigned i = 0; i < numTraceComponents; ++i) {
        if (!(_mask & (1u << i)))
            continue;
        if (!_first_event)
            _os << ",";
        _first_event = false;
        _os << "\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << (i + 1)
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << traceComponentName(static_cast<TraceComponent>(i))
            << "\"}}";
    }
}

void
TraceSink::beginEvent(const char *phase, TraceComponent comp, Tick at)
{
    beginEventTid(phase, static_cast<unsigned>(comp) + 1, at);
}

void
TraceSink::beginEventTid(const char *phase, unsigned tid, Tick at)
{
    if (!_first_event)
        _os << ",";
    _first_event = false;
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.4f", ticksToUs(at));
    _os << "\n{\"ph\":\"" << phase << "\",\"pid\":1,\"tid\":" << tid
        << ",\"ts\":" << ts;
}

void
TraceSink::writeArgs(const TraceArg *args, unsigned num_args)
{
    if (num_args == 0)
        return;
    _os << ",\"args\":{";
    for (unsigned i = 0; i < num_args; ++i) {
        if (i)
            _os << ",";
        _os << "\"" << args[i].key << "\":";
        appendNumber(_os, args[i].value);
    }
    _os << "}";
}

void
TraceSink::endEvent(TraceComponent comp)
{
    _os << "}";
    ++_count[static_cast<unsigned>(comp)];
    ++_total_events;
}

void
TraceSink::emitSpan(TraceComponent comp, const char *event_name,
                    Tick start, Tick end, const TraceArg *args,
                    unsigned num_args)
{
    if (!wants(comp))
        return;
    if (end < start)
        end = start;
    beginEvent("X", comp, start);
    char dur[32];
    std::snprintf(dur, sizeof(dur), "%.4f", ticksToUs(end - start));
    _os << ",\"dur\":" << dur << ",\"name\":\"" << event_name << "\"";
    writeArgs(args, num_args);
    endEvent(comp);
}

void
TraceSink::emitInstant(TraceComponent comp, const char *event_name,
                       Tick at, const TraceArg *args,
                       unsigned num_args)
{
    if (!wants(comp))
        return;
    beginEvent("i", comp, at);
    _os << ",\"s\":\"t\",\"name\":\"" << event_name << "\"";
    writeArgs(args, num_args);
    endEvent(comp);
}

void
TraceSink::emitCounter(TraceComponent comp, const char *series,
                       Tick at, double value)
{
    if (!wants(comp))
        return;
    beginEvent("C", comp, at);
    _os << ",\"name\":\"" << series << "\",\"args\":{\"value\":";
    appendNumber(_os, value);
    _os << "}";
    endEvent(comp);
}

unsigned
TraceSink::registerTrack(const char *track_name, TraceComponent comp)
{
    if (!wants(comp))
        return 0;
    _trackComps.push_back(comp);
    unsigned track = static_cast<unsigned>(_trackComps.size());
    // Name the track right away; a mid-stream thread_name metadata
    // record is valid in the trace-event format (tools apply the last
    // one seen for a tid).
    if (!_first_event)
        _os << ",";
    _first_event = false;
    _os << "\n{\"ph\":\"M\",\"pid\":1,\"tid\":" << trackTid(track)
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << track_name << "\"}}";
    return track;
}

void
TraceSink::emitCounterTrack(unsigned track, TraceComponent comp,
                            const char *series, Tick at, double value)
{
    if (track == 0 || track > _trackComps.size()) {
        emitCounter(comp, series, at, value);
        return;
    }
    if (!wants(comp))
        return;
    beginEventTid("C", trackTid(track), at);
    _os << ",\"name\":\"" << series << "\",\"args\":{\"value\":";
    appendNumber(_os, value);
    _os << "}";
    endEvent(comp);
}

void
TraceSink::emitFlowBegin(TraceComponent comp, const char *flow_name,
                         Tick at, std::uint64_t flow_id)
{
    if (!wants(comp))
        return;
    beginEvent("s", comp, at);
    _os << ",\"cat\":\"flow\",\"id\":" << flow_id << ",\"name\":\""
        << flow_name << "\"";
    endEvent(comp);
    ++_flow_events;
}

void
TraceSink::emitFlowEnd(TraceComponent comp, const char *flow_name,
                       Tick at, std::uint64_t flow_id)
{
    if (!wants(comp))
        return;
    // "bp":"e" binds the arrow head to the enclosing slice rather
    // than the next slice, matching how the router brackets its flow
    // records with zero-width spans.
    beginEvent("f", comp, at);
    _os << ",\"cat\":\"flow\",\"bp\":\"e\",\"id\":" << flow_id
        << ",\"name\":\"" << flow_name << "\"";
    endEvent(comp);
    ++_flow_events;
}

void
TraceSink::finish()
{
    if (_finished)
        return;
    _finished = true;
    _os << "\n]}\n";
    _os.flush();
}

std::uint64_t
TraceSink::eventCount(TraceComponent comp) const
{
    unsigned index = static_cast<unsigned>(comp);
    return index < numTraceComponents ? _count[index] : 0;
}

} // namespace pageforge
