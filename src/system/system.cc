#include "system/system.hh"

#include <algorithm>

#include "fault/fault_injector.hh"
#include "fault/merge_oracle.hh"
#include "prof/profiler.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"
#include "sim/logging.hh"
#include "trace/trace_sink.hh"

namespace pageforge
{

const MergeStats System::emptyMergeStats{};
const HashKeyStats System::emptyHashStats{};

System::System(const SystemConfig &config, const AppProfile &app)
    : _config(config), _app(scaleProfile(app, config.memScale)),
      _rng(config.seed)
{
    _config.validate();

    std::size_t frames = _config.memFrames;
    if (frames == 0) {
        // Auto-size: footprint of all VMs plus CoW/zero headroom,
        // with room for the dynamic instances churn can admit.
        std::size_t peak_vms = _config.numVms;
        if (_config.churn.kind != ChurnKind::None)
            peak_vms += _config.churn.maxDynamicVms;
        frames = peak_vms * _app.footprintPages * 2 + 8192;
    }

    // One sub-arena and one memory controller per channel; frame f
    // homes on channel f % numMcs (the ShardMap interleave). Every MC
    // count builds the same objects: a 1-MC machine is a one-shard
    // machine whose router never carries a handoff.
    _mem = std::make_unique<PhysicalMemory>(frames, _config.numMcs);
    std::vector<MemController *> mc_ptrs;
    for (unsigned m = 0; m < _config.numMcs; ++m) {
        _mcs.push_back(std::make_unique<MemController>(
            "mc" + std::to_string(m), _eq, *_mem, _config.dram));
        mc_ptrs.push_back(_mcs.back().get());
    }
    _shardMap = std::make_unique<ShardMap>(_config.numMcs);
    _router = std::make_unique<CrossMcRouter>(_config.numMcs);
    _hierarchy = std::make_unique<Hierarchy>(
        "chip", _eq, _config.numCores, _config.l1, _config.l2,
        _config.l3, _config.bus, mc_ptrs);
    for (unsigned c = 0; c < _config.numCores; ++c) {
        _cores.push_back(std::make_unique<Core>(
            "core" + std::to_string(c), _eq,
            static_cast<CoreId>(c)));
    }
    _hyper = std::make_unique<Hypervisor>("hypervisor", _eq, *_mem);
    // Derive per-component streams from fixed offsets of the seed, so
    // Baseline/KSM/PageForge runs of the same seed see identical
    // content and query randomness regardless of which components
    // exist (variance reduction between configurations).
    _content = std::make_unique<ContentGenerator>(
        *_hyper, _config.seed ^ 0x636f6e74656e74ULL);
    _latency = std::make_unique<LatencyStats>(_config.numVms);

    std::vector<Core *> core_ptrs;
    for (auto &core : _cores)
        core_ptrs.push_back(core.get());

    switch (_config.mode) {
      case DedupMode::None:
        break;
      case DedupMode::Ksm:
        _ksmSched = std::make_unique<KsmScheduler>(
            "ksm_sched", _eq, _config.numCores, _config.ksmPlacement,
            _config.ksmStickiness,
            Rng(_config.seed ^ 0x7363686564ULL));
        _ksmd = std::make_unique<Ksmd>("ksmd", _eq, *_hyper,
                                       *_hierarchy, core_ptrs,
                                       *_ksmSched, _config.ksm);
        break;
      case DedupMode::PageForge:
        // One module + Scan Table per controller; the driver owns one
        // content-tree shard per module and routes each candidate to
        // the shard owning its content-key prefix.
        std::vector<PageForgeApi *> api_ptrs;
        for (unsigned m = 0; m < _config.numMcs; ++m) {
            _pfModules.push_back(std::make_unique<PageForgeModule>(
                "mc" + std::to_string(m) + ".pageforge", _eq, *_mcs[m],
                *_hierarchy, _config.pfModule));
            _pfApis.push_back(
                std::make_unique<PageForgeApi>(*_pfModules[m]));
            api_ptrs.push_back(_pfApis.back().get());
        }
        _pfDriver = std::make_unique<PageForgeDriver>(
            "pf_driver", _eq, *_hyper, api_ptrs, *_shardMap, *_router,
            core_ptrs, _config.pfDriver);
        break;
    }

    if (_config.faults.enabled()) {
        // The oracle shadow-checks every merge commit; the injector
        // draws from its own stream (like content/sched/lifecycle) so
        // the workload's randomness is untouched by fault activity.
        _oracle = std::make_unique<MergeOracle>();
        _hyper->setMergeOracle(_oracle.get());
        _faults = std::make_unique<FaultInjector>(
            "fault_injector", _eq, mc_ptrs, *_hyper, _config.faults,
            _config.seed ^ 0x6661756c74ULL ^ _config.faults.seed);
        if (_pfDriver) {
            _pfDriver->setFaultInjector(_faults.get());
            // Minikey-targeted flips track update_ECC_offset rotations.
            _faults->setEccOffsetsProvider(
                [this] { return _pfDriver->config().eccOffsets; });
        }
        if (!_pfModules.empty()) {
            _faults->setScanTableCorruptor([this](Rng &rng) {
                // The extra module-picking draw only exists on a
                // multi-MC machine, so the single-MC fault stream is
                // unchanged from the classic configuration (pinned by
                // GoldenStats.FaultedPageForgeCellMatchesGoldenSnapshot).
                PageForgeModule &module = _pfModules.size() == 1
                    ? *_pfModules[0]
                    : *_pfModules[static_cast<std::size_t>(
                          rng.nextBounded(_pfModules.size()))];
                ScanTable &table = module.table();
                unsigned index = static_cast<unsigned>(
                    rng.nextBounded(table.numOtherPages()));
                FrameId victim = static_cast<FrameId>(
                    rng.nextBounded(_mem->totalFrames()));
                return table.corruptOtherPpn(index, victim);
            });
        }

        // MC-scale fault domains: the health state machine exists for
        // any MC-scale class; the watchdog only when modules can wedge.
        if (_config.faults.mcFaultsEnabled()) {
            _health = std::make_unique<McHealthMonitor>(
                "mc_health", _eq, _config.numMcs);
        }
        if (!_pfModules.empty() && _config.faults.mcWedgeRate > 0.0) {
            _watchdog = std::make_unique<ModuleWatchdog>(
                "watchdog", _eq, _config.watchdog, *_pfDriver,
                *_shardMap);
            for (auto &module : _pfModules)
                _watchdog->watchModule(*module);
            _watchdog->onQuarantine([this](unsigned mc) {
                _health->transition(mc, McHealth::Quarantined,
                                    "module wedge detected");
            });
            _watchdog->onRecovering([this](unsigned mc) {
                _health->transition(mc, McHealth::Recovering,
                                    "module restarted");
            });
            _watchdog->onHealthy([this](unsigned mc) {
                _health->transition(mc, McHealth::Healthy,
                                    "re-admitted");
            });
            _faults->setModuleWedger([this](Rng &rng) {
                // Single-module machines skip the picking draw, like
                // the table corruptor, so adding controllers never
                // perturbs an existing fault stream's other classes.
                std::size_t pick = _pfModules.size() == 1
                    ? 0
                    : static_cast<std::size_t>(
                          rng.nextBounded(_pfModules.size()));
                unsigned mc = static_cast<unsigned>(pick);
                if (_pfModules[pick]->wedged() || _watchdog->shardDown(mc))
                    return false;
                _pfModules[pick]->wedge();
                return true;
            });
        }
        if (_config.faults.brownoutRate > 0.0) {
            // A brownout only lands on a Healthy channel: Degraded
            // channels are already browned out, and Quarantined /
            // Recovering ones are being handled by the watchdog.
            _faults->setBrownoutHooks(
                [this](Rng &rng) -> int {
                    // No picking draw on a 1-MC machine, as above.
                    std::size_t pick = _mcs.size() == 1
                        ? 0
                        : static_cast<std::size_t>(
                              rng.nextBounded(_mcs.size()));
                    unsigned mc = static_cast<unsigned>(pick);
                    if (_health->state(mc) != McHealth::Healthy)
                        return -1;
                    _mcs[mc]->setLatencyScale(
                        _config.faults.brownoutMult);
                    _health->transition(mc, McHealth::Degraded,
                                        "channel brownout");
                    return static_cast<int>(mc);
                },
                [this](unsigned mc) {
                    _mcs[mc]->setLatencyScale(1.0);
                    // The channel may have been quarantined by a wedge
                    // mid-brownout; the watchdog then owns its path
                    // back to Healthy.
                    if (_health->state(mc) == McHealth::Degraded)
                        _health->transition(mc, McHealth::Healthy,
                                            "brownout ended");
                });
        }
    }

    if (_config.churn.kind != ChurnKind::None) {
        // Dynamic instances run the template app (defaulting to the
        // static fleet's), scaled like everything else.
        AppProfile churn_app = _config.churn.templateApp.empty()
            ? _app
            : scaleProfile(appByName(_config.churn.templateApp),
                           _config.memScale);
        _lifecycle = std::make_unique<LifecycleManager>(
            "lifecycle", _eq, *_hyper, *_content, *this, churn_app,
            _config.churn, _config.lifecycle,
            Rng(_config.seed ^ 0x6c696665ULL));
    }

    setupObservability();
}

void
System::setupObservability()
{
    // Enroll every component under its track. The registry stays
    // detached for now: the sink (if any) attaches in startLoad(), so
    // synchronous warm-up passes never pollute the trace and a run
    // without a sink costs one null check per fire site.
    for (auto &mc : _mcs)
        mc->attachProbe(_probes, TraceComponent::DramBw);
    _hierarchy->attachProbe(_probes, TraceComponent::Cache);
    _hyper->attachProbe(_probes, TraceComponent::Ksm);
    if (_ksmd)
        _ksmd->attachProbe(_probes, TraceComponent::Ksm);
    for (auto &module : _pfModules)
        module->attachProbe(_probes, TraceComponent::ScanTable);
    if (_pfDriver)
        _pfDriver->attachProbe(_probes, TraceComponent::ScanTable);
    // The router is not a SimObject; enroll its probe directly so
    // cross-MC handoffs draw flow arrows on the Scan Table track.
    _probes.enroll(_router->probe(), TraceComponent::ScanTable);
    if (_lifecycle)
        _lifecycle->attachProbe(_probes, TraceComponent::Lifecycle);
    if (_faults)
        _faults->attachProbe(_probes, TraceComponent::Fault);
    if (_watchdog)
        _watchdog->attachProbe(_probes, TraceComponent::Fault);
    if (_health)
        _health->attachProbe(_probes, TraceComponent::Fault);

    Tick interval = _config.metricsInterval;
    if (interval == 0 && _config.traceSink)
        interval = msToTicks(1.0);
    if (interval == 0)
        return;

    _metrics = std::make_unique<MetricsSampler>("metrics", _eq,
                                                interval);

    _metrics->add("mapped-pages", TraceComponent::Ksm, [this] {
        return static_cast<double>(_hyper->mappedPageCount());
    });
    _metrics->add("frames-used", TraceComponent::Ksm, [this] {
        return static_cast<double>(_mem->framesInUse());
    });
    _metrics->add("dedup-ratio", TraceComponent::Ksm, [this] {
        std::uint64_t frames = _mem->framesInUse();
        return frames ? static_cast<double>(_hyper->mappedPageCount()) /
                static_cast<double>(frames)
                      : 0.0;
    });
    _metrics->add("merges", TraceComponent::Ksm, [this] {
        return static_cast<double>(_hyper->merges());
    });
    _metrics->add("cow-breaks", TraceComponent::Ksm, [this] {
        return static_cast<double>(_hyper->cowBreaks());
    });
    if (_config.mode != DedupMode::None) {
        _metrics->add("pages-scanned", TraceComponent::Ksm, [this] {
            return static_cast<double>(mergeStats().pagesScanned);
        });
    }

    // DRAM bandwidth over the last sampling interval, GB/s of
    // simulated time. The tracker's byte counter resets at measurement
    // boundaries; a backwards step restarts the delta instead of
    // reporting a negative rate.
    _metrics->add(
        "dram-gbps", TraceComponent::DramBw,
        [this, prev_bytes = std::uint64_t{0},
         prev_tick = Tick{0}]() mutable {
            std::uint64_t bytes = 0;
            for (auto &mc : _mcs)
                for (unsigned r = 0; r < numRequesters; ++r)
                    bytes += mc->dram().bandwidth().totalBytes(
                        static_cast<Requester>(r));
            Tick now = _eq.curTick();
            double gbps = 0.0;
            if (bytes >= prev_bytes && now > prev_tick) {
                double secs = ticksToSec(now - prev_tick);
                gbps = static_cast<double>(bytes - prev_bytes) / secs /
                    1e9;
            }
            prev_bytes = bytes;
            prev_tick = now;
            return gbps;
        });

    _metrics->add("mshr-occupancy", TraceComponent::Cache, [this] {
        return static_cast<double>(
            _hierarchy->l2MshrOccupancy(_eq.curTick()));
    });
    _metrics->add("l3-miss-rate", TraceComponent::Cache,
                  [this] { return _hierarchy->l3MissRate(); });

    if (!_pfModules.empty()) {
        _metrics->add("scan-table-occupancy",
                      TraceComponent::ScanTable, [this] {
            std::uint64_t valid = 0;
            for (auto &module : _pfModules)
                valid += module->table().validOthers();
            return static_cast<double>(valid);
        });
    }

    // Per-MC series, each on its own named Perfetto track so a
    // multi-channel run shows one track per controller, then the
    // handoff queue depth. Gated on numMcs > 1: a 1-MC machine's trace
    // and sampled series keep their historical columns.
    if (_config.numMcs > 1) {
        for (unsigned m = 0; _pfDriver && m < _config.numMcs; ++m) {
            std::string track = "mc" + std::to_string(m);
            _metrics->add(track + "-merged-pages",
                          TraceComponent::ScanTable,
                          [this, m] {
                return static_cast<double>(_pfDriver->shardMerges(m));
            }, track);
            _metrics->add(track + "-scans", TraceComponent::ScanTable,
                          [this, m] {
                return static_cast<double>(_pfDriver->shardScans(m));
            }, track);
        }
        _metrics->add("handoff-queue-depth", TraceComponent::ScanTable,
                      [this] {
            return static_cast<double>(_router->depth(_eq.curTick()));
        });
    }
    if (_lifecycle) {
        _metrics->add("live-vms", TraceComponent::Lifecycle, [this] {
            return static_cast<double>(_config.numVms +
                                       _lifecycle->liveDynamicVms());
        });
    }
    if (_faults) {
        _metrics->add("poisoned-frames", TraceComponent::Fault, [this] {
            return static_cast<double>(_mem->poisonedFrames());
        });
        _metrics->add("uncorrectable-errors", TraceComponent::Fault,
                      [this] {
            std::uint64_t n = 0;
            for (auto &mc : _mcs)
                n += mc->uncorrectableErrors();
            return static_cast<double>(n);
        });
        _metrics->add("corrected-errors", TraceComponent::Fault, [this] {
            std::uint64_t n = 0;
            for (auto &mc : _mcs)
                n += mc->correctedErrors();
            return static_cast<double>(n);
        });
        if (_health) {
            // Drives the recovery-curve columns of the fault bench:
            // nonzero exactly while some MC is degraded, quarantined,
            // or recovering.
            _metrics->add("unhealthy-mcs", TraceComponent::Fault,
                          [this] {
                std::uint64_t n = 0;
                for (unsigned m = 0; m < _health->numMcs(); ++m)
                    if (_health->state(m) != McHealth::Healthy)
                        ++n;
                return static_cast<double>(n);
            });
        }
    }
}

System::~System() = default;

void
System::deploy()
{
    pf_assert(!_deployed, "deploy() called twice");
    _deployed = true;

    for (unsigned v = 0; v < _config.numVms; ++v) {
        VmLayout layout = _content->deployVm(_app, v);
        _layouts.push_back(layout);
        _apps.push_back(std::make_unique<TailBenchApp>(
            _app.name + ".app" + std::to_string(v), _eq, *_hyper,
            *_hierarchy, *_cores[v], *_content, layout, _app,
            *_latency,
            Rng(_config.seed * 0x9e3779b97f4a7c15ULL + v + 1)));
    }

    if (_lifecycle)
        _lifecycle->setTemplate(_layouts[0]);
}

TailBenchApp *
System::attachApp(const VmLayout &layout, const AppProfile &profile)
{
    // Dynamic VMs share cores round-robin with the static fleet; the
    // app object is kept for the lifetime of the run (only stopped on
    // detach) because in-flight events capture it.
    Core &core = *_cores[layout.vm % _config.numCores];
    _apps.push_back(std::make_unique<TailBenchApp>(
        profile.name + ".app" + std::to_string(layout.vm), _eq, *_hyper,
        *_hierarchy, core, *_content, layout, profile, *_latency,
        Rng(_config.seed * 0x9e3779b97f4a7c15ULL + layout.vm + 0x1000)));
    return _apps.back().get();
}

void
System::detachApp(VmId vm)
{
    for (auto &app : _apps) {
        if (app->vmId() == vm && app->isRunning())
            app->stop();
    }
}

unsigned
System::warmupDedup(unsigned max_passes)
{
    pf_assert(_deployed, "warmup before deploy");
    if (_config.mode == DedupMode::None)
        return 0;

    std::uint64_t merges_before = _hyper->merges();
    for (unsigned pass = 1; pass <= max_passes; ++pass) {
        if (_config.mode == DedupMode::Ksm)
            _ksmd->runOnePassNow();
        else
            _pfDriver->runOnePassNow();

        std::uint64_t merges_now = _hyper->merges();
        if (pass >= 2 && merges_now == merges_before) {
            finishWarmup();
            return pass;
        }
        merges_before = merges_now;
    }
    finishWarmup();
    return max_passes;
}

void
System::finishWarmup()
{
    // Synchronous passes advance their own local clocks far beyond
    // the event queue's; clear the timing debris they left in the
    // memory system (bank/bus availability, pending-read coalescing,
    // MSHR entries) so the measured phase starts clean.
    for (auto &mc : _mcs) {
        mc->resetTiming();
        mc->dram().bandwidth().reset(_eq.curTick());
    }
    _hierarchy->resetTiming();
}

void
System::startLoad()
{
    pf_assert(_deployed, "startLoad before deploy");
    pf_assert(!_started, "startLoad called twice");
    _started = true;

    for (auto &app : _apps)
        app->start();

    if (_config.traceSink)
        _probes.attach(*_config.traceSink);
    if (_metrics) {
        _metrics->setBackend(_config.traceSink);
        _metrics->start();
    }

    // Arm the handoff link faults only now: synchronous warm-up passes
    // go through the reliable enqueue() path and must stay loss-free
    // (and draw-free) for determinism against the fault-free warmup.
    if (_config.faults.handoffFaultsEnabled()) {
        _handoffRng = std::make_unique<Rng>(
            _config.seed ^ 0x68616e646f6666ULL ^ _config.faults.seed);
        HandoffFaultModel model;
        model.lossProb = _config.faults.handoffLossProb;
        model.corruptProb = _config.faults.handoffCorruptProb;
        model.spikeProb = _config.faults.handoffSpikeProb;
        model.spikeMult = _config.faults.handoffSpikeMult;
        model.rng = _handoffRng.get();
        _router->armFaults(model);
    }

    if (_ksmd)
        _ksmd->start();
    if (_pfDriver)
        _pfDriver->start();
    if (_lifecycle)
        _lifecycle->start();
    if (_faults)
        _faults->start();
    if (_watchdog)
        _watchdog->start();
    if (_config.auditInterval > 0)
        scheduleAudit();
}

void
System::finishObservability()
{
    if (_metrics)
        _metrics->finish();
}

void
System::scheduleAudit()
{
    _eq.schedule(_eq.curTick() + _config.auditInterval, [this] {
        FrameAuditReport report = _hyper->auditFrames();
        if (!report.ok) {
            panicAt("hypervisor", _eq.curTick(),
                    "periodic frame audit failed after %llu frames / "
                    "%llu mappings: %s",
                    static_cast<unsigned long long>(report.framesAudited),
                    static_cast<unsigned long long>(
                        report.mappingsAudited),
                    report.problem.c_str());
        }
        scheduleAudit();
    });
}

void
System::run(Tick duration)
{
    _eq.runUntil(_eq.curTick() + duration);
}

void
System::resetMeasurement()
{
    _latency->reset();
    _hierarchy->resetStats();
    for (auto &mc : _mcs)
        mc->dram().bandwidth().reset(_eq.curTick());
    for (auto &core : _cores)
        core->resetStats();
    if (_ksmd)
        _ksmd->resetStats();
    if (_pfDriver)
        _pfDriver->resetStats();
    for (auto &module : _pfModules)
        module->resetStats();
    if (_lifecycle)
        _lifecycle->resetStats();
}

const MergeStats &
System::mergeStats() const
{
    if (_ksmd)
        return _ksmd->mergeStats();
    if (_pfDriver)
        return _pfDriver->mergeStats();
    return emptyMergeStats;
}

const HashKeyStats &
System::hashStats() const
{
    if (_ksmd)
        return _ksmd->hashStats();
    if (_pfDriver)
        return _pfDriver->hashStats();
    return emptyHashStats;
}

} // namespace pageforge
