/**
 * @file
 * Chrome trace-event / Perfetto JSON sink keyed to simulated ticks.
 */

#ifndef PF_TRACE_TRACE_SINK_HH
#define PF_TRACE_TRACE_SINK_HH

#include <cstdint>
#include <ostream>
#include <vector>

#include "trace/component.hh"
#include "trace/probe.hh"

namespace pageforge
{

/**
 * Writes trace events as Chrome trace-event JSON ("JSON Object
 * Format": {"traceEvents": [...]}), loadable in Perfetto UI and
 * chrome://tracing.
 *
 * Mapping: the whole simulation is pid 1; each TraceComponent is one
 * "thread" whose thread_name metadata carries the component name, so
 * every component appears as its own named track. Timestamps are
 * simulated time converted to microseconds (the format's unit), so
 * the timeline in the UI reads in simulated ms/us, not host time.
 *
 * Events stream to the ostream as they fire; finish() (or the
 * destructor) closes the JSON. Not thread-safe: one sink serves one
 * single-threaded simulation — campaign workers must not share one.
 */
class TraceSink : public TraceBackend
{
  public:
    /**
     * @param os          destination stream (kept by reference)
     * @param filter_mask components to record; events of filtered
     *                    components are dropped and their probes stay
     *                    inactive (default: everything)
     */
    explicit TraceSink(std::ostream &os,
                       std::uint32_t filter_mask = allComponentsMask);
    ~TraceSink() override;

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    // TraceBackend interface
    bool wants(TraceComponent comp) const override;
    void emitSpan(TraceComponent comp, const char *event_name,
                  Tick start, Tick end, const TraceArg *args,
                  unsigned num_args) override;
    void emitInstant(TraceComponent comp, const char *event_name,
                     Tick at, const TraceArg *args,
                     unsigned num_args) override;
    void emitCounter(TraceComponent comp, const char *series, Tick at,
                     double value) override;
    unsigned registerTrack(const char *track_name,
                           TraceComponent comp) override;
    void emitCounterTrack(unsigned track, TraceComponent comp,
                          const char *series, Tick at,
                          double value) override;
    void emitFlowBegin(TraceComponent comp, const char *flow_name,
                       Tick at, std::uint64_t flow_id) override;
    void emitFlowEnd(TraceComponent comp, const char *flow_name,
                     Tick at, std::uint64_t flow_id) override;

    /** Close the JSON document; further events are dropped. */
    void finish();

    /** Events recorded for one component (metadata excluded). */
    std::uint64_t eventCount(TraceComponent comp) const;

    /** Total events recorded (metadata excluded). */
    std::uint64_t totalEvents() const { return _total_events; }

    /** Dynamic tracks registered (on top of the component tracks). */
    unsigned numTracks() const
    {
        return static_cast<unsigned>(_trackComps.size());
    }

    /** Flow begin/end records written. */
    std::uint64_t flowEvents() const { return _flow_events; }

  private:
    void writeHeader();
    void beginEvent(const char *phase, TraceComponent comp, Tick at);
    void beginEventTid(const char *phase, unsigned tid, Tick at);
    void writeArgs(const TraceArg *args, unsigned num_args);
    void endEvent(TraceComponent comp);

    /** Perfetto tid of dynamic track @p track (1-based track ids). */
    unsigned trackTid(unsigned track) const
    {
        return numTraceComponents + track;
    }

    std::ostream &_os;
    std::uint32_t _mask;
    bool _finished = false;
    bool _first_event = true;
    std::uint64_t _count[numTraceComponents] = {};
    std::uint64_t _total_events = 0;
    std::uint64_t _flow_events = 0;
    // Owning component of each dynamic track, indexed by track id - 1.
    // Events on a track count toward (and filter with) that component.
    std::vector<TraceComponent> _trackComps;
};

} // namespace pageforge

#endif // PF_TRACE_TRACE_SINK_HH
