#include "system/campaign.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <ostream>
#include <sstream>
#include <thread>

#include "prof/profiler.hh"
#include "sim/host.hh"
#include "sim/logging.hh"
#include "workload/app_profile.hh"

namespace pageforge
{

std::vector<CampaignCell>
CampaignSpec::cells() const
{
    std::vector<std::string> app_names = apps;
    if (app_names.empty())
        for (const AppProfile &app : tailbenchApps())
            app_names.push_back(app.name);

    std::vector<DedupMode> mode_list = modes;
    if (mode_list.empty())
        mode_list = {DedupMode::None, DedupMode::Ksm,
                     DedupMode::PageForge};

    unsigned seeds = std::max(1u, numSeeds);

    std::vector<CampaignCell> matrix;
    matrix.reserve(app_names.size() * mode_list.size() * seeds);
    for (const std::string &app : app_names)
        for (DedupMode mode : mode_list)
            for (unsigned s = 0; s < seeds; ++s)
                matrix.push_back({app, mode, experiment.seed + s});
    return matrix;
}

std::size_t
CampaignReport::failures() const
{
    return static_cast<std::size_t>(
        std::count_if(cells.begin(), cells.end(),
                      [](const CellOutcome &c) { return !c.ok; }));
}

const CellOutcome *
CampaignReport::find(const std::string &app, DedupMode mode,
                     std::uint64_t seed) const
{
    for (const CellOutcome &outcome : cells)
        if (outcome.cell.app == app && outcome.cell.mode == mode &&
            outcome.cell.seed == seed)
            return &outcome;
    return nullptr;
}

const ExperimentResult &
CampaignReport::at(const std::string &app, DedupMode mode,
                   std::size_t seed_index) const
{
    std::size_t matched = 0;
    for (const CellOutcome &outcome : cells) {
        if (outcome.cell.app != app || outcome.cell.mode != mode)
            continue;
        if (matched++ != seed_index)
            continue;
        if (!outcome.ok)
            fatal("campaign cell %s/%s (seed %llu) failed: %s",
                  app.c_str(), dedupModeName(mode),
                  static_cast<unsigned long long>(outcome.cell.seed),
                  outcome.error.c_str());
        return outcome.result;
    }
    fatal("campaign has no cell %s/%s (seed index %zu)", app.c_str(),
          dedupModeName(mode), seed_index);
}

CampaignReport
runCampaign(const CampaignSpec &spec)
{
    std::vector<CampaignCell> matrix = spec.cells();

    // Reject unknown applications before any worker starts (and warm
    // the profile table's one-time initialization on this thread).
    if (!spec.runner)
        for (const CampaignCell &cell : matrix)
            (void)appByName(cell.app);

    CellRunner runner = spec.runner;
    if (!runner) {
        ExperimentConfig base_cfg = spec.experiment;
        SystemConfig sys = spec.sysTemplate;
        runner = [base_cfg, sys](const CampaignCell &cell) {
            ExperimentConfig cfg = base_cfg;
            cfg.seed = cell.seed;
            // A TraceSink is single-simulation state; parallel cells
            // must not share one. Campaigns keep metrics sampling
            // (per-cell, shared-nothing) and drop event tracing.
            cfg.traceSink = nullptr;
            return runExperiment(appByName(cell.app), cell.mode, cfg,
                                 sys);
        };
    }

    CampaignReport report;
    report.cells.resize(matrix.size());

    unsigned jobs = spec.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(std::min<std::size_t>(
        jobs, std::max<std::size_t>(matrix.size(), 1)));
    report.jobs = jobs;
    report.numMcs = spec.sysTemplate.numMcs;
    report.memScale = spec.experiment.memScale;
    report.targetQueries = spec.experiment.targetQueries;

    auto start = std::chrono::steady_clock::now();

    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;

    auto work = [&]() {
        // Arm thread-local invariant capture: a panicAt() fired by a
        // component (merge oracle, frame audit, ...) surfaces as a
        // typed exception with the faulting component and tick, and
        // fails only this cell instead of aborting the campaign. With
        // one job this is the caller's thread: restore its state.
        bool was_capturing = invariantCapture();
        setInvariantCapture(true);
        for (;;) {
            std::size_t idx = next.fetch_add(1);
            if (idx >= matrix.size())
                break;
            CellOutcome &outcome = report.cells[idx];
            outcome.cell = matrix[idx];
            try {
                outcome.result = runner(matrix[idx]);
                outcome.ok = true;
            } catch (const InvariantViolation &e) {
                outcome.error = e.what();
                outcome.failComponent = e.component;
                outcome.failTick = e.tick;
            } catch (const std::exception &e) {
                outcome.error = e.what();
            } catch (...) {
                outcome.error = "unknown exception";
            }
            outcome.peakRssKb = hostPeakRssKb();
            std::size_t so_far = done.fetch_add(1) + 1;
            if (spec.progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                spec.progress(outcome, so_far, matrix.size());
            }
        }
        setInvariantCapture(was_capturing);
    };

    if (jobs <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j)
            pool.emplace_back(work);
        for (std::thread &worker : pool)
            worker.join();
    }

    report.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return report;
}

namespace
{

// ---- JSON helpers (minimal, stable field order) ----

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          case '\t':
            os << "\\t";
            break;
          case '\r':
            os << "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
jsonDouble(std::ostream &os, double v)
{
    // max_digits10 so a JSON round trip preserves the exact value.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

void
jsonDup(std::ostream &os, const DupAnalysis &dup)
{
    os << "{\"mapped_pages\":" << dup.mappedPages
       << ",\"unmergeable\":" << dup.unmergeable
       << ",\"mergeable_zero\":" << dup.mergeableZero
       << ",\"mergeable_non_zero\":" << dup.mergeableNonZero
       << ",\"frames_used\":" << dup.framesUsed
       << ",\"frames_if_fully_merged\":" << dup.framesIfFullyMerged
       << "}";
}

/**
 * One result as JSON. @p handoff_latency writes the per-MC
 * handoff-latency block; campaign JSON passes prof::enabled() so
 * profiling-off output stays byte-identical to earlier builds, and
 * identicalResults() always passes true.
 */
void
jsonResult(std::ostream &os, const ExperimentResult &r,
           bool handoff_latency)
{
    os << "{\"mean_sojourn_ms\":";
    jsonDouble(os, r.meanSojournMs);
    os << ",\"p95_sojourn_ms\":";
    jsonDouble(os, r.p95SojournMs);
    os << ",\"queries\":" << r.queries;
    os << ",\"dup\":";
    jsonDup(os, r.dup);
    os << ",\"dup_before\":";
    jsonDup(os, r.dupBefore);
    os << ",\"dup_warm\":";
    jsonDup(os, r.dupWarm);
    os << ",\"l3_miss_rate\":";
    jsonDouble(os, r.l3MissRate);
    os << ",\"l3_app_miss_rate\":";
    jsonDouble(os, r.l3AppMissRate);
    os << ",\"ksm_cycle_frac_avg\":";
    jsonDouble(os, r.ksmCycleFracAvg);
    os << ",\"ksm_cycle_frac_max\":";
    jsonDouble(os, r.ksmCycleFracMax);
    os << ",\"ksm_compare_frac\":";
    jsonDouble(os, r.ksmCompareFrac);
    os << ",\"ksm_hash_frac\":";
    jsonDouble(os, r.ksmHashFrac);
    os << ",\"hash\":{\"jhash_matches\":" << r.hashStats.jhashMatches
       << ",\"jhash_mismatches\":" << r.hashStats.jhashMismatches
       << ",\"jhash_false_matches\":" << r.hashStats.jhashFalseMatches
       << ",\"ecc_matches\":" << r.hashStats.eccMatches
       << ",\"ecc_mismatches\":" << r.hashStats.eccMismatches
       << ",\"ecc_false_matches\":" << r.hashStats.eccFalseMatches
       << "}";
    os << ",\"baseline_phase_bw_gbps\":";
    jsonDouble(os, r.baselinePhaseBwGBps);
    os << ",\"dedup_phase_bw_gbps\":";
    jsonDouble(os, r.dedupPhaseBwGBps);
    os << ",\"pf_batch_cycles_avg\":";
    jsonDouble(os, r.pfBatchCyclesAvg);
    os << ",\"pf_batch_cycles_stddev\":";
    jsonDouble(os, r.pfBatchCyclesStddev);
    os << ",\"pf_refills\":" << r.pfRefills;
    os << ",\"pf_os_checks\":" << r.pfOsChecks;
    os << ",\"pf_pages_scanned\":" << r.pfPagesScanned;
    os << ",\"merges\":" << r.merges;
    os << ",\"cow_breaks\":" << r.cowBreaks;
    os << ",\"sim_events\":" << r.simEvents;
    os << ",\"pages_scanned\":" << r.pagesScanned;
    os << ",\"host_seconds\":";
    jsonDouble(os, r.hostSeconds);
    // Only present when the cell ran with fault injection, so
    // fault-free campaign JSON stays byte-identical.
    if (r.faults.enabled) {
        const FaultSummary &f = r.faults;
        os << ",\"faults\":{\"flip_events\":" << f.flipEvents
           << ",\"single_bit_flips\":" << f.singleBitFlips
           << ",\"double_bit_flips\":" << f.doubleBitFlips
           << ",\"stuck_at_faults\":" << f.stuckAtFaults
           << ",\"minikey_targeted\":" << f.minikeyTargeted
           << ",\"table_corruptions\":" << f.tableCorruptions
           << ",\"race_writes\":" << f.raceWrites
           << ",\"skipped_no_target\":" << f.skippedNoTarget
           << ",\"corrected_errors\":" << f.correctedErrors
           << ",\"uncorrectable_errors\":" << f.uncorrectableErrors
           << ",\"poisoned_frames\":" << f.poisonedFrames
           << ",\"quarantined_frames\":" << f.quarantinedFrames
           << ",\"poisoned_merge_refusals\":" << f.poisonedMergeRefusals
           << ",\"false_key_matches\":" << f.falseKeyMatches
           << ",\"offset_rotations\":" << f.offsetRotations
           << ",\"merge_aborts\":" << f.mergeAborts
           << ",\"merge_retries\":" << f.mergeRetries
           << ",\"hw_hash_races\":" << f.hwHashRaces
           << ",\"oracle_checks\":" << f.oracleChecks
           << ",\"cross_mc_checks\":" << f.crossMcChecks
           << ",\"oracle_violations\":" << f.oracleViolations
           << ",\"mc_wedges_injected\":" << f.mcWedgesInjected
           << ",\"brownouts\":" << f.brownouts
           << ",\"handoffs_lost\":" << f.handoffsLost
           << ",\"handoffs_corrupted\":" << f.handoffsCorrupted
           << ",\"handoffs_spiked\":" << f.handoffsSpiked
           << ",\"handoff_retries\":" << f.handoffRetries
           << ",\"handoff_dead_letters\":" << f.handoffDeadLetters
           << ",\"wedges_detected\":" << f.wedgesDetected
           << ",\"module_restarts\":" << f.moduleRestarts
           << ",\"failovers\":" << f.failovers
           << ",\"readmissions\":" << f.readmissions
           << ",\"rehomed_prefixes\":" << f.rehomedPrefixes
           << ",\"health_transitions\":" << f.healthTransitions
           << "}";
    }
    // Only present on churn runs, so static campaign JSON stays
    // byte-identical.
    if (r.lifecycle.enabled) {
        const LifecycleSummary &l = r.lifecycle;
        os << ",\"lifecycle\":{\"clones\":" << l.clones
           << ",\"boots\":" << l.boots
           << ",\"shutdowns\":" << l.shutdowns
           << ",\"skipped_arrivals\":" << l.skippedArrivals
           << ",\"frames_freed\":" << l.framesFreed;
        os << ",\"mean_unmerge_storm\":";
        jsonDouble(os, l.meanUnmergeStorm);
        os << ",\"mean_reclaim_us\":";
        jsonDouble(os, l.meanReclaimUs);
        os << ",\"mean_recovery_ms\":";
        jsonDouble(os, l.meanRecoveryMs);
        os << ",\"p95_recovery_ms\":";
        jsonDouble(os, l.p95RecoveryMs);
        os << ",\"recovery_timeouts\":" << l.recoveryTimeouts << "}";
        os << ",\"phases\":[";
        for (std::size_t i = 0; i < r.phases.size(); ++i) {
            const PhaseSnapshot &p = r.phases[i];
            if (i)
                os << ",";
            os << "{\"tick\":" << p.tick
               << ",\"frames_used\":" << p.framesUsed
               << ",\"mapped_pages\":" << p.mappedPages
               << ",\"live_vms\":" << p.liveVms << "}";
        }
        os << "]";
    }
    // Only present on a multi-MC machine, so single-controller
    // campaign JSON stays byte-identical to earlier versions.
    if (r.numMcs > 1) {
        os << ",\"num_mcs\":" << r.numMcs;
        os << ",\"mcs\":[";
        for (std::size_t m = 0; m < r.perMc.size(); ++m) {
            const McSummary &mc = r.perMc[m];
            if (m)
                os << ",";
            os << "{\"scans\":" << mc.scans
               << ",\"merges\":" << mc.merges
               << ",\"handoffs_in\":" << mc.handoffsIn
               << ",\"handoffs_out\":" << mc.handoffsOut
               << ",\"table_occupancy\":" << mc.tableOccupancy;
            // Health machinery exists only under an MC-scale fault
            // campaign, so fault-free (and classic-fault) multi-MC
            // JSON stays byte-identical to earlier builds.
            if (!mc.health.empty()) {
                os << ",\"health\":";
                jsonString(os, mc.health);
                os << ",\"health_transitions\":"
                   << mc.healthTransitions
                   << ",\"wedges\":" << mc.wedges
                   << ",\"quarantines\":" << mc.quarantines
                   << ",\"readmissions\":" << mc.readmissions;
            }
            if (handoff_latency) {
                os << ",\"handoff_latency\":{\"count\":"
                   << mc.handoffLatCount;
                os << ",\"mean_ticks\":";
                jsonDouble(os, mc.handoffLatMeanTicks);
                os << ",\"min_ticks\":";
                jsonDouble(os, mc.handoffLatMinTicks);
                os << ",\"max_ticks\":";
                jsonDouble(os, mc.handoffLatMaxTicks);
                os << ",\"p50_ticks\":";
                jsonDouble(os, mc.handoffLatP50Ticks);
                os << ",\"p95_ticks\":";
                jsonDouble(os, mc.handoffLatP95Ticks);
                os << "}";
            }
            os << "}";
        }
        os << "]";
    }
    // Only present when the cell sampled metrics, so default-config
    // campaign JSON stays byte-identical to earlier versions.
    if (!r.metrics.empty()) {
        os << ",\"metrics\":";
        r.metrics.writeJson(os);
    }
    os << "}";
}

} // namespace

bool
identicalResults(const ExperimentResult &a, const ExperimentResult &b)
{
    // Host wall-clock differs between any two runs, and the metrics
    // series is observability output whose presence depends on the
    // sampling interval (MetricsDoNotPerturbResults); neither is part
    // of the result.
    auto text = [](ExperimentResult r) {
        r.hostSeconds = 0.0;
        r.metrics = MetricsSeries{};
        std::ostringstream os;
        jsonResult(os, r, /*handoff_latency=*/true);
        return os.str();
    };
    return a.app == b.app && a.mode == b.mode && text(a) == text(b);
}

void
writeCampaignJson(const CampaignReport &report, std::ostream &os)
{
    os << "{\"schema\":\"pageforge-campaign-v2\"";
    os << ",\"jobs\":" << report.jobs;
    os << ",\"wall_seconds\":";
    jsonDouble(os, report.wallSeconds);
    os << ",\"failures\":" << report.failures();
    os << ",\"cells\":[";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome &outcome = report.cells[i];
        if (i)
            os << ",";
        os << "{\"app\":";
        jsonString(os, outcome.cell.app);
        os << ",\"mode\":";
        jsonString(os, dedupModeName(outcome.cell.mode));
        os << ",\"seed\":" << outcome.cell.seed;
        os << ",\"ok\":" << (outcome.ok ? "true" : "false");
        if (outcome.ok) {
            os << ",\"result\":";
            jsonResult(os, outcome.result, prof::enabled());
        } else {
            os << ",\"error\":";
            jsonString(os, outcome.error);
            // Invariant violations carry the faulting component and
            // the simulated tick it detected the problem at.
            if (!outcome.failComponent.empty()) {
                os << ",\"fail_component\":";
                jsonString(os, outcome.failComponent);
                os << ",\"fail_tick\":" << outcome.failTick;
            }
        }
        os << "}";
    }
    os << "]";
    // Host-time self-profile of the whole campaign process; only on
    // profiling runs so default output stays byte-identical.
    if (prof::enabled()) {
        os << ",\"profile\":";
        prof::writeJson(os);
    }
    os << "}\n";
}

void
writePerfReport(const CampaignReport &report, std::ostream &os,
                double baseline_seconds)
{
    std::uint64_t total_events = 0;
    std::uint64_t total_pages = 0;
    std::uint64_t peak_rss = 0;
    for (const CellOutcome &outcome : report.cells) {
        if (outcome.ok) {
            total_events += outcome.result.simEvents;
            total_pages += outcome.result.pagesScanned;
        }
        peak_rss = std::max(peak_rss, outcome.peakRssKb);
    }

    // A gate keys entries on (num_mcs, jobs) and refuses a workload
    // (mem_scale, target_queries) other than the baseline's. Legacy v2
    // entries also carry "lanes"; v1 entries have no num_mcs, implying
    // 1 MC.
    os << "{\"schema\":\"pageforge-simspeed-v3\"";
    os << ",\"jobs\":" << report.jobs;
    os << ",\"num_mcs\":" << report.numMcs;
    os << ",\"mem_scale\":";
    jsonDouble(os, report.memScale);
    os << ",\"target_queries\":" << report.targetQueries;
    os << ",\"wall_seconds\":";
    jsonDouble(os, report.wallSeconds);
    if (baseline_seconds > 0.0) {
        os << ",\"baseline_wall_seconds\":";
        jsonDouble(os, baseline_seconds);
        os << ",\"speedup\":";
        jsonDouble(os, baseline_seconds / report.wallSeconds);
    }
    os << ",\"total_sim_events\":" << total_events;
    os << ",\"total_pages_scanned\":" << total_pages;
    if (report.wallSeconds > 0.0) {
        os << ",\"events_per_sec\":";
        jsonDouble(os, static_cast<double>(total_events) /
                           report.wallSeconds);
        os << ",\"pages_scanned_per_sec\":";
        jsonDouble(os, static_cast<double>(total_pages) /
                           report.wallSeconds);
    }
    os << ",\"peak_rss_kb\":" << peak_rss;
    os << ",\"failures\":" << report.failures();
    os << ",\"cells\":[";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const CellOutcome &outcome = report.cells[i];
        if (i)
            os << ",";
        os << "{\"app\":";
        jsonString(os, outcome.cell.app);
        os << ",\"mode\":";
        jsonString(os, dedupModeName(outcome.cell.mode));
        os << ",\"seed\":" << outcome.cell.seed;
        os << ",\"ok\":" << (outcome.ok ? "true" : "false");
        if (outcome.ok) {
            const ExperimentResult &r = outcome.result;
            os << ",\"host_ms\":";
            jsonDouble(os, r.hostSeconds * 1e3);
            os << ",\"sim_events\":" << r.simEvents;
            os << ",\"pages_scanned\":" << r.pagesScanned;
            if (r.hostSeconds > 0.0) {
                os << ",\"events_per_sec\":";
                jsonDouble(os, static_cast<double>(r.simEvents) /
                               r.hostSeconds);
                os << ",\"pages_scanned_per_sec\":";
                jsonDouble(os, static_cast<double>(r.pagesScanned) /
                               r.hostSeconds);
            }
        } else {
            os << ",\"error\":";
            jsonString(os, outcome.error);
        }
        os << ",\"peak_rss_kb\":" << outcome.peakRssKb;
        os << "}";
    }
    os << "]}\n";
}

} // namespace pageforge
