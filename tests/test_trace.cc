/**
 * @file
 * Tests for the observability subsystem: probes and their registry,
 * the Chrome-trace JSON sink, the periodic metrics sampler, and the
 * contract that none of it perturbs simulated outcomes.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/sim_object.hh"
#include "system/campaign.hh"
#include "system/experiment.hh"
#include "system/system.hh"
#include "trace/metrics_sampler.hh"
#include "trace/probe.hh"
#include "trace/trace_sink.hh"

namespace pageforge
{
namespace
{

/** Backend that records what fired, for probe-layer tests. */
struct RecordingBackend : TraceBackend
{
    std::uint32_t mask = allComponentsMask;
    std::vector<std::string> events;

    bool
    wants(TraceComponent comp) const override
    {
        return (mask & componentBit(comp)) != 0;
    }

    void
    emitSpan(TraceComponent, const char *event_name, Tick, Tick,
             const TraceArg *, unsigned) override
    {
        events.push_back(std::string("span:") + event_name);
    }

    void
    emitInstant(TraceComponent, const char *event_name, Tick,
                const TraceArg *, unsigned) override
    {
        events.push_back(std::string("instant:") + event_name);
    }

    void
    emitCounter(TraceComponent, const char *series, Tick,
                double) override
    {
        events.push_back(std::string("counter:") + series);
    }
};

struct Widget : SimObject
{
    Widget(EventQueue &eq) : SimObject("widget", eq) {}
};

TEST(Probe, InactiveByDefaultAndFiresAreNoOps)
{
    EventQueue eq;
    Widget w(eq);
    EXPECT_FALSE(w.probe().active());
    // Must be safe with no backend: a single null check each.
    w.probe().span("s", 0, 10);
    w.probe().instant("i", 5, TraceArg{"k", 1.0});
    w.probe().counter("c", 5, 2.0);
}

TEST(ProbeRegistry, EnrollThenAttachActivates)
{
    EventQueue eq;
    Widget w(eq);
    ProbeRegistry registry;
    RecordingBackend backend;

    w.attachProbe(registry, TraceComponent::Ksm);
    EXPECT_FALSE(w.probe().active());
    EXPECT_EQ(w.probe().component(), TraceComponent::Ksm);

    registry.attach(backend);
    EXPECT_TRUE(w.probe().active());
    w.probe().instant("merge", 100);
    ASSERT_EQ(backend.events.size(), 1u);
    EXPECT_EQ(backend.events[0], "instant:merge");

    registry.detach();
    EXPECT_FALSE(w.probe().active());
    w.probe().instant("merge", 200);
    EXPECT_EQ(backend.events.size(), 1u);
}

TEST(ProbeRegistry, AttachThenEnrollActivates)
{
    EventQueue eq;
    Widget w(eq);
    ProbeRegistry registry;
    RecordingBackend backend;

    registry.attach(backend);
    w.attachProbe(registry, TraceComponent::Cache);
    EXPECT_TRUE(w.probe().active());
    EXPECT_EQ(registry.numProbes(), 1u);
}

TEST(ProbeRegistry, FilteredComponentsStayInactive)
{
    EventQueue eq;
    Widget wanted(eq);
    Widget filtered(eq);
    ProbeRegistry registry;
    RecordingBackend backend;
    backend.mask = componentBit(TraceComponent::Ksm);

    wanted.attachProbe(registry, TraceComponent::Ksm);
    filtered.attachProbe(registry, TraceComponent::DramBw);
    registry.attach(backend);

    EXPECT_TRUE(wanted.probe().active());
    EXPECT_FALSE(filtered.probe().active());
}

TEST(TraceSink, WritesChromeTraceJson)
{
    std::ostringstream os;
    TraceSink sink(os);
    sink.emitSpan(TraceComponent::ScanTable, "batch", 2000, 4000,
                  nullptr, 0);
    TraceArg arg{"vm", 3.0};
    sink.emitInstant(TraceComponent::Ksm, "merge", 5000, &arg, 1);
    sink.emitCounter(TraceComponent::DramBw, "dram-gbps", 6000, 1.5);
    sink.finish();

    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
    // Track-name metadata for every component.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"scan-table\""), std::string::npos);
    EXPECT_NE(json.find("\"lifecycle\""), std::string::npos);
    // The three phases with their payloads.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"batch\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"vm\":3"), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"value\":1.5"), std::string::npos);
    // Document closes.
    EXPECT_EQ(json.substr(json.size() - 3), "]}\n");

    EXPECT_EQ(sink.eventCount(TraceComponent::ScanTable), 1u);
    EXPECT_EQ(sink.eventCount(TraceComponent::Ksm), 1u);
    EXPECT_EQ(sink.totalEvents(), 3u);
}

TEST(TraceSink, FilterDropsEventsAndMetadata)
{
    std::ostringstream os;
    TraceSink sink(os, componentBit(TraceComponent::Ksm));
    EXPECT_TRUE(sink.wants(TraceComponent::Ksm));
    EXPECT_FALSE(sink.wants(TraceComponent::DramBw));

    sink.emitInstant(TraceComponent::Ksm, "merge", 100, nullptr, 0);
    sink.emitInstant(TraceComponent::DramBw, "dropped", 100, nullptr, 0);
    sink.finish();

    std::string json = os.str();
    EXPECT_NE(json.find("\"merge\""), std::string::npos);
    EXPECT_EQ(json.find("\"dropped\""), std::string::npos);
    EXPECT_EQ(json.find("\"dram-bw\""), std::string::npos);
    EXPECT_EQ(sink.totalEvents(), 1u);
}

TEST(TraceSink, SpanClampsNegativeDuration)
{
    std::ostringstream os;
    TraceSink sink(os);
    sink.emitSpan(TraceComponent::Sim, "backwards", 500, 100, nullptr,
                  0);
    sink.finish();
    EXPECT_EQ(os.str().find("\"dur\":-"), std::string::npos);
}

TEST(MetricsSampler, RecordsPeriodicSeries)
{
    EventQueue eq;
    MetricsSampler sampler("metrics", eq, 100);
    double x = 0.0;
    sampler.add("x", TraceComponent::Sim, [&x] { return x; });
    sampler.add("twice-x", TraceComponent::Sim,
                [&x] { return 2.0 * x; });
    EXPECT_EQ(sampler.numMetrics(), 2u);

    sampler.start();
    x = 7.0; // the tick-0 sample already recorded x = 0
    eq.runUntil(350);
    sampler.stop();
    eq.runAll(); // drain the dead epoch's event; must not sample

    const MetricsSeries &series = sampler.series();
    ASSERT_EQ(series.ticks.size(), 4u); // ticks 0, 100, 200, 300
    EXPECT_EQ(series.ticks.front(), 0u);
    EXPECT_EQ(series.ticks.back(), 300u);
    ASSERT_EQ(series.names.size(), 2u);
    ASSERT_EQ(series.rows.size(), 4u);
    EXPECT_DOUBLE_EQ(series.rows[0][0], 0.0);
    EXPECT_DOUBLE_EQ(series.rows[1][0], 7.0);
    EXPECT_DOUBLE_EQ(series.rows[1][1], 14.0);
}

TEST(MetricsSampler, IntervalLongerThanRunYieldsOneSample)
{
    EventQueue eq;
    MetricsSampler sampler("metrics", eq, msToTicks(1000));
    sampler.add("x", TraceComponent::Sim, [] { return 1.0; });
    sampler.start();
    eq.runUntil(msToTicks(1)); // run length << interval
    sampler.stop();
    EXPECT_EQ(sampler.series().ticks.size(), 1u);
}

TEST(TraceSink, FlowEventsWriteArrowPhases)
{
    std::ostringstream os;
    TraceSink sink(os);
    sink.emitFlowBegin(TraceComponent::ScanTable, "handoff", 1000, 7);
    sink.emitFlowEnd(TraceComponent::ScanTable, "handoff", 2000, 7);
    sink.finish();

    std::string json = os.str();
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"flow\""), std::string::npos);
    EXPECT_NE(json.find("\"id\":7"), std::string::npos);
    // The arrow head binds to the enclosing slice, not the next one.
    EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_EQ(sink.flowEvents(), 2u);
}

TEST(TraceSink, FlowEventsRespectComponentFilter)
{
    std::ostringstream os;
    TraceSink sink(os, componentBit(TraceComponent::Ksm));
    sink.emitFlowBegin(TraceComponent::ScanTable, "handoff", 100, 1);
    sink.emitFlowEnd(TraceComponent::ScanTable, "handoff", 200, 1);
    sink.finish();
    EXPECT_EQ(sink.flowEvents(), 0u);
    EXPECT_EQ(os.str().find("\"cat\":\"flow\""), std::string::npos);
}

TEST(MetricsSampler, FinishCapturesFinalPartialEpoch)
{
    EventQueue eq;
    MetricsSampler sampler("metrics", eq, 100);
    double x = 1.0;
    sampler.add("x", TraceComponent::Sim, [&x] { return x; });
    sampler.start();
    eq.runUntil(350); // advances curTick to 350, mid-epoch
    x = 9.0;
    sampler.finish();
    eq.runAll(); // drain the dead epoch's event; must not sample

    const MetricsSeries &series = sampler.series();
    ASSERT_EQ(series.ticks.size(), 5u); // 0..300 plus the tail sample
    EXPECT_EQ(series.ticks.back(), 350u);
    EXPECT_DOUBLE_EQ(series.rows.back()[0], 9.0);
}

TEST(MetricsSampler, FinishAtExactSampleTickAddsNoDuplicate)
{
    EventQueue eq;
    MetricsSampler sampler("metrics", eq, 100);
    sampler.add("x", TraceComponent::Sim, [] { return 1.0; });
    sampler.start();
    eq.runUntil(300); // the tick-300 periodic sample already landed
    sampler.finish();
    ASSERT_EQ(sampler.series().ticks.size(), 4u);
    EXPECT_EQ(sampler.series().ticks.back(), 300u);
}

TEST(MetricsSampler, FinishWithoutStartKeepsSeriesEmpty)
{
    EventQueue eq;
    MetricsSampler sampler("metrics", eq, 100);
    sampler.add("x", TraceComponent::Sim, [] { return 1.0; });
    sampler.finish();
    EXPECT_TRUE(sampler.series().empty());
}

TEST(MetricsSampler, StartClearsPreviousSeries)
{
    EventQueue eq;
    MetricsSampler sampler("metrics", eq, 50);
    sampler.add("x", TraceComponent::Sim, [] { return 1.0; });
    sampler.start();
    eq.runUntil(200);
    EXPECT_GT(sampler.series().ticks.size(), 1u);

    sampler.start(); // e.g. after resetMeasurement()
    EXPECT_EQ(sampler.series().ticks.size(), 1u);
    EXPECT_EQ(sampler.series().ticks.front(), eq.curTick());
}

TEST(MetricsSeries, CsvAndJsonFormats)
{
    MetricsSeries series;
    series.names = {"a", "b"};
    series.ticks = {0, 100};
    series.rows = {{1.0, 2.0}, {3.0, 4.5}};

    std::ostringstream csv;
    series.writeCsv(csv);
    EXPECT_NE(csv.str().find("tick,a,b"), std::string::npos);
    EXPECT_NE(csv.str().find("100,3,4.5"), std::string::npos);

    std::ostringstream json;
    series.writeJson(json);
    EXPECT_NE(json.str().find("\"names\":[\"a\",\"b\"]"),
              std::string::npos);
    EXPECT_NE(json.str().find("\"ticks\":[0,100]"), std::string::npos);
    EXPECT_NE(json.str().find("[3,4.5]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Full-system tracing: every major component lands on its track, and
// the warmup phase stays out of the trace.
// ---------------------------------------------------------------------

SystemConfig
tracedSystemConfig()
{
    SystemConfig config;
    config.mode = DedupMode::PageForge;
    config.numCores = 4;
    config.numVms = 4;
    config.memScale = 0.05;
    config.churn.kind = ChurnKind::Burst;
    config.churn.burstSize = 2;
    config.churn.burstInterval = msToTicks(8);
    config.churn.meanLifetime = msToTicks(10);
    config.churn.maxDynamicVms = 4;
    config.metricsInterval = msToTicks(1);
    return config;
}

TEST(SystemTrace, AllComponentTracksReceiveEvents)
{
    std::ostringstream os;
    TraceSink sink(os);
    SystemConfig config = tracedSystemConfig();
    config.traceSink = &sink;

    System system(config, appByName("img_dnn"));
    system.deploy();
    system.warmupDedup(4);
    // Warmup merging is synchronous and must not pollute the trace:
    // the sink only attaches at startLoad().
    EXPECT_EQ(sink.totalEvents(), 0u);

    system.startLoad();
    system.run(msToTicks(60));

    EXPECT_GE(sink.eventCount(TraceComponent::ScanTable), 1u);
    EXPECT_GE(sink.eventCount(TraceComponent::Ksm), 1u);
    EXPECT_GE(sink.eventCount(TraceComponent::DramBw), 1u);
    EXPECT_GE(sink.eventCount(TraceComponent::Cache), 1u);
    EXPECT_GE(sink.eventCount(TraceComponent::Lifecycle), 1u);

    ASSERT_NE(system.metrics(), nullptr);
    const MetricsSeries &series = system.metrics()->series();
    EXPECT_FALSE(series.empty());
    EXPECT_GE(series.names.size(), 5u);
}

TEST(SystemTrace, FourMcRunDrawsCrossMcHandoffFlowArrows)
{
    // A traced multi-MC run must show each cross-MC candidate handoff
    // as a flow arrow from the sending shard to the receiving one.
    std::ostringstream os;
    TraceSink sink(os);
    SystemConfig config;
    config.mode = DedupMode::PageForge;
    config.numCores = 4;
    config.numVms = 4;
    config.numMcs = 4;
    config.memScale = 0.05;
    config.l1 = CacheConfig{"l1", 4 * 1024, 2, 2, 4};
    config.l2 = CacheConfig{"l2", 16 * 1024, 4, 6, 8};
    config.l3 = CacheConfig{"l3", 256 * 1024, 16, 20, 16};
    config.traceSink = &sink;

    System system(config, appByName("masstree"));
    system.deploy();
    system.warmupDedup(3);
    system.startLoad();
    system.run(msToTicks(30));
    system.finishObservability();
    sink.finish();

    EXPECT_GT(sink.flowEvents(), 0u);
    EXPECT_NE(os.str().find("\"cat\":\"flow\""), std::string::npos);
}

// ---------------------------------------------------------------------
// The observability contract: metrics sampling must not change any
// simulated outcome.
// ---------------------------------------------------------------------

TEST(SystemTrace, MetricsDoNotPerturbResults)
{
    ExperimentConfig cfg;
    cfg.memScale = 0.03;
    cfg.warmupPasses = 3;
    cfg.settleTime = msToTicks(2);
    cfg.targetQueries = 100;
    cfg.minMeasure = msToTicks(20);
    cfg.maxMeasure = msToTicks(40);

    SystemConfig sys;
    sys.numCores = 2;
    sys.numVms = 2;

    AppProfile app = appByName("masstree");
    app.qps = 1000;

    ExperimentResult off =
        runExperiment(app, DedupMode::PageForge, cfg, sys);
    cfg.metricsInterval = msToTicks(1);
    ExperimentResult on =
        runExperiment(app, DedupMode::PageForge, cfg, sys);

    EXPECT_TRUE(off.metrics.empty());
    EXPECT_FALSE(on.metrics.empty());

    // Sampling adds events, so the queue dispatches more of them; every
    // simulated outcome must still match bit for bit.
    EXPECT_GT(on.simEvents, off.simEvents);
    ExperimentResult normalized = on;
    normalized.simEvents = off.simEvents;
    normalized.hostSeconds = off.hostSeconds;
    EXPECT_TRUE(identicalResults(off, normalized));
}

} // namespace
} // namespace pageforge
