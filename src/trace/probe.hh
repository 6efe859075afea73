/**
 * @file
 * Zero-overhead-when-off trace probes.
 *
 * Every SimObject owns a Probe. Components fire it unconditionally on
 * interesting transitions; with no sink attached each call is a single
 * pointer-null check (the same discipline as the guarded pf_warn
 * macros, and verified the same way by the golden-stats bit-identity
 * suite). When a TraceSink is attached via the ProbeRegistry, calls
 * dispatch through the TraceBackend interface below.
 */

#ifndef PF_TRACE_PROBE_HH
#define PF_TRACE_PROBE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"
#include "trace/component.hh"

namespace pageforge
{

/** One named numeric argument attached to a trace event. */
struct TraceArg
{
    const char *key;
    double value;
};

/**
 * Receiver side of a Probe. TraceSink is the production
 * implementation; tests substitute recording stubs.
 */
class TraceBackend
{
  public:
    virtual ~TraceBackend() = default;

    /** Should probes of this component bind at all? */
    virtual bool wants(TraceComponent comp) const = 0;

    /** A span of simulated time [start, end]. */
    virtual void emitSpan(TraceComponent comp, const char *event_name,
                          Tick start, Tick end, const TraceArg *args,
                          unsigned num_args) = 0;

    /** A point event at one tick. */
    virtual void emitInstant(TraceComponent comp, const char *event_name,
                             Tick at, const TraceArg *args,
                             unsigned num_args) = 0;

    /** A counter-track sample. */
    virtual void emitCounter(TraceComponent comp, const char *series,
                             Tick at, double value) = 0;

    /**
     * Register a named dynamic counter track (one Perfetto track per
     * memory controller of a multi-MC machine, say). Returns a nonzero
     * track id, or 0 when the backend has no dynamic-track support —
     * the defaults keep single-track test stubs source-compatible.
     */
    virtual unsigned
    registerTrack(const char *track_name, TraceComponent comp)
    {
        (void)track_name;
        (void)comp;
        return 0;
    }

    /**
     * A counter sample on a registered dynamic track. Track id 0 (or
     * a backend without track support) falls back to the component's
     * own counter track.
     */
    virtual void
    emitCounterTrack(unsigned track, TraceComponent comp,
                     const char *series, Tick at, double value)
    {
        (void)track;
        emitCounter(comp, series, at, value);
    }

    /**
     * Start of a flow: a Perfetto arrow from the slice enclosing this
     * tick to the slice enclosing the matching emitFlowEnd. flow_id
     * pairs the two ends (the cross-MC router uses the handoff
     * sequence number). Defaulted to no-ops so recording stubs and
     * older backends stay source-compatible.
     */
    virtual void
    emitFlowBegin(TraceComponent comp, const char *flow_name, Tick at,
                  std::uint64_t flow_id)
    {
        (void)comp;
        (void)flow_name;
        (void)at;
        (void)flow_id;
    }

    /** End of a flow started by emitFlowBegin with the same flow_id. */
    virtual void
    emitFlowEnd(TraceComponent comp, const char *flow_name, Tick at,
                std::uint64_t flow_id)
    {
        (void)comp;
        (void)flow_name;
        (void)at;
        (void)flow_id;
    }
};

/**
 * The per-SimObject hook. Inactive (null backend) by default; firing
 * an inactive probe costs one branch.
 */
class Probe
{
  public:
    bool active() const { return _backend != nullptr; }

    TraceComponent component() const { return _comp; }

    void
    span(const char *event_name, Tick start, Tick end)
    {
        if (_backend)
            _backend->emitSpan(_comp, event_name, start, end, nullptr,
                               0);
    }

    void
    span(const char *event_name, Tick start, Tick end, TraceArg a)
    {
        if (_backend)
            _backend->emitSpan(_comp, event_name, start, end, &a, 1);
    }

    void
    span(const char *event_name, Tick start, Tick end, TraceArg a,
         TraceArg b)
    {
        if (_backend) {
            TraceArg args[2] = {a, b};
            _backend->emitSpan(_comp, event_name, start, end, args, 2);
        }
    }

    void
    instant(const char *event_name, Tick at)
    {
        if (_backend)
            _backend->emitInstant(_comp, event_name, at, nullptr, 0);
    }

    void
    instant(const char *event_name, Tick at, TraceArg a)
    {
        if (_backend)
            _backend->emitInstant(_comp, event_name, at, &a, 1);
    }

    void
    instant(const char *event_name, Tick at, TraceArg a, TraceArg b)
    {
        if (_backend) {
            TraceArg args[2] = {a, b};
            _backend->emitInstant(_comp, event_name, at, args, 2);
        }
    }

    void
    counter(const char *series, Tick at, double value)
    {
        if (_backend)
            _backend->emitCounter(_comp, series, at, value);
    }

    void
    flowBegin(const char *flow_name, Tick at, std::uint64_t flow_id)
    {
        if (_backend)
            _backend->emitFlowBegin(_comp, flow_name, at, flow_id);
    }

    void
    flowEnd(const char *flow_name, Tick at, std::uint64_t flow_id)
    {
        if (_backend)
            _backend->emitFlowEnd(_comp, flow_name, at, flow_id);
    }

  private:
    friend class ProbeRegistry;

    TraceBackend *_backend = nullptr;
    TraceComponent _comp = TraceComponent::Sim;
};

/**
 * Tracks every enrolled probe so a sink can be attached (or detached)
 * at any point relative to component construction. Enroll-then-attach
 * and attach-then-enroll both work; probes of components the backend
 * does not want stay inactive.
 */
class ProbeRegistry
{
  public:
    void
    enroll(Probe &probe, TraceComponent comp)
    {
        probe._comp = comp;
        _probes.push_back(&probe);
        bind(probe);
    }

    void
    attach(TraceBackend &backend)
    {
        _backend = &backend;
        for (Probe *probe : _probes)
            bind(*probe);
    }

    void
    detach()
    {
        _backend = nullptr;
        for (Probe *probe : _probes)
            probe->_backend = nullptr;
    }

    std::size_t numProbes() const { return _probes.size(); }

  private:
    void
    bind(Probe &probe)
    {
        probe._backend =
            (_backend && _backend->wants(probe._comp)) ? _backend
                                                       : nullptr;
    }

    std::vector<Probe *> _probes;
    TraceBackend *_backend = nullptr;
};

} // namespace pageforge

#endif // PF_TRACE_PROBE_HH
