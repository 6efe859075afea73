#include "workload.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "sim/logging.hh"
#include "system/campaign.hh"
#include "workload/app_profile.hh"

namespace hostbench
{

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Construct: return "construct";
      case Phase::Deploy: return "deploy";
      case Phase::Warmup: return "warmup";
      case Phase::Settle: return "settle";
      case Phase::Window: return "window";
      case Phase::Collect: return "collect";
      case Phase::Audit: return "audit";
      case Phase::Probes: return "probes";
      case Phase::Teardown: return "teardown";
    }
    return "?";
}

bool
phaseInWall(Phase phase)
{
    return phase != Phase::Audit && phase != Phase::Probes;
}

namespace
{

const std::vector<std::string> allApps = {"img_dnn", "masstree", "moses",
                                          "silo", "sphinx"};

WorkloadSpec
baseSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec spec;
    spec.name = name;
    spec.apps = allApps;
    spec.experiment.seed = seed;
    return spec;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"mem-path", "dedup-1mc",
                                                   "pf-4mc-churn"};
    return names;
}

WorkloadSpec
workloadByName(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec spec = baseSpec(name, seed);
    // Sizes: one repetition takes under ten host seconds on a current
    // x86 core, so a run holds three or more. Sphinx (1 QPS per VM)
    // needs a window of about a second to complete a few queries.
    // Where a cell's host cost depends strongly on its seed, several
    // seeds per app on short windows average it out: churn, and the
    // PageForge warm-up, whose Scan Table walks take up to ten times
    // longer on some seeds for the same number of walks.
    if (name == "mem-path") {
        spec.modes = {DedupMode::None};
        spec.experiment.memScale = 0.1;
        spec.experiment.targetQueries = 750;
        spec.seedsPerCell = 2;
    } else if (name == "dedup-1mc") {
        spec.modes = {DedupMode::Ksm, DedupMode::PageForge};
        spec.experiment.memScale = 0.05;
        spec.experiment.targetQueries = 100;
        spec.experiment.minMeasure = msToTicks(50);
        spec.experiment.maxMeasure = msToTicks(1000);
        spec.seedsPerCell = 4;
    } else if (name == "pf-4mc-churn") {
        spec.modes = {DedupMode::PageForge};
        spec.sysTemplate.numMcs = 4;
        spec.experiment.churn.kind = ChurnKind::Poisson;
        spec.experiment.memScale = 0.05;
        spec.experiment.targetQueries = 100;
        spec.experiment.minMeasure = msToTicks(50);
        spec.experiment.maxMeasure = msToTicks(1000);
        spec.seedsPerCell = 4;
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    return spec;
}

double
RepResult::phaseSeconds(Phase phase) const
{
    double sum = 0.0;
    for (const Span &span : spans)
        if (span.phase == phase)
            sum += span.seconds();
    return sum;
}

std::vector<CampaignCell>
WorkloadSpec::cells() const
{
    std::vector<CampaignCell> list;
    for (std::size_t a = 0; a < apps.size(); ++a)
        for (DedupMode mode : modes)
            for (unsigned s = 0; s < seedsPerCell; ++s)
                list.push_back(
                    {apps[a], mode,
                     (experiment.seed * apps.size() + a) * seedsPerCell +
                         s});
    return list;
}

std::size_t
RepResult::failures() const
{
    std::size_t n = 0;
    for (const CellRecord &cell : cells)
        n += !cell.ok;
    return n;
}

RepResult
runRepetition(const WorkloadSpec &spec, bool traced)
{
    // Invariant violations inside a cell surface as exceptions and
    // fail only that cell, as in the campaign runner.
    setInvariantCapture(true);
    RepResult rep;
    if (traced)
        prof::reset();

    for (const CampaignCell &cell : spec.cells()) {
        const unsigned idx = static_cast<unsigned>(rep.cells.size());
        CellRecord rec;
        rec.cell = cell;
        ExperimentConfig cfg = spec.experiment;
        cfg.seed = cell.seed;

        // Spans are contiguous: each starts where the last ended,
        // so together they cover the cell from first to last tick.
        Phase current = Phase::Construct;
        std::uint64_t mark_ns = prof::nowNs();
        auto close = [&](Phase next) {
            std::uint64_t now = prof::nowNs();
            rep.spans.push_back({idx, current, mark_ns, now});
            mark_ns = now;
            current = next;
        };

        std::unique_ptr<CellDriver> driver;
        prof::setEnabled(traced);
        try {
            driver = std::make_unique<CellDriver>(
                appByName(cell.app), cell.mode, cfg, spec.sysTemplate);
            close(Phase::Deploy);
            driver->deploy();
            close(Phase::Warmup);
            rec.warmupPasses = driver->warmup();
            close(Phase::Settle);
            driver->settle();
            close(Phase::Window);
            driver->window();
            close(Phase::Collect);
            rec.result = driver->collect();
            rec.counters = driver->counters();
            if (const LaneScheduler *lanes =
                    driver->system().laneScheduler())
                rec.laneThreads = static_cast<int>(lanes->threads());
            prof::setEnabled(false);
            close(Phase::Audit);
            FrameAuditReport audit =
                driver->system().hypervisor().auditFrames();
            if (!audit.ok)
                throw std::runtime_error("frame audit failed: " +
                                         audit.problem);
            if (traced) {
                close(Phase::Probes);
                rec.probes = runProbes(driver->system());
            }
            rec.ok = true;
        } catch (const std::exception &e) {
            rec.error = e.what();
        }
        prof::setEnabled(false);
        close(Phase::Teardown);
        driver.reset();
        close(Phase::Teardown);

        for (const Span &span : rep.spans)
            if (span.cell == idx && phaseInWall(span.phase))
                rec.wallSeconds += span.seconds();
        rec.result.hostSeconds = rec.wallSeconds;
        rep.cells.push_back(std::move(rec));
    }
    if (traced)
        rep.profile = prof::snapshot();
    return rep;
}

std::vector<std::string>
checkAgainstCampaign(const WorkloadSpec &spec, const RepResult &rep)
{
    std::vector<std::string> problems;
    for (DedupMode mode : spec.modes) {
        auto it = std::find_if(rep.cells.begin(), rep.cells.end(),
                               [mode](const CellRecord &c) {
                                   return c.cell.mode == mode;
                               });
        if (it == rep.cells.end() || !it->ok)
            continue;
        ExperimentConfig cfg = spec.experiment;
        cfg.seed = it->cell.seed;
        std::string id = it->cell.app + "/" + dedupModeName(mode);
        try {
            ExperimentResult reference = runExperiment(
                appByName(it->cell.app), mode, cfg, spec.sysTemplate);
            if (!identicalResults(reference, it->result))
                problems.push_back(id + ": CellDriver and runExperiment() "
                                        "disagree");
        } catch (const std::exception &e) {
            problems.push_back(id + ": runExperiment() failed: " + e.what());
        }
    }
    return problems;
}

namespace
{

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
writeCounters(std::ostream &os, const CellRecord &cell)
{
    const LayerCounters &c = cell.counters;
    os << cell.cell.app << '/' << dedupModeName(cell.cell.mode)
       << " warmup_passes=" << cell.warmupPasses << " l1=" << c.l1Hits
       << ',' << c.l1Misses << " l2=" << c.l2Hits << ',' << c.l2Misses
       << " l3=" << c.l3Hits << ',' << c.l3Misses << ','
       << c.l3AppAccesses << ',' << c.l3AppMisses
       << " dram=" << c.dramReads << ',' << c.dramWrites << ','
       << c.rowHits << ',' << c.rowMisses << ',' << c.coalescedReads
       << ',' << c.eccEncodes << " soft_faults=" << c.softFaults
       << " ksm=" << c.ksmPagesScanned << ',' << c.ksmMerges
       << " pf=" << c.pfPagesScanned << ',' << c.pfBatches << ','
       << c.pfComparisons << ',' << c.pfDuplicates << ','
       << c.pfLinesFetched << ',' << c.pfSnoopHits
       << " handoffs=" << c.handoffs;
    const ExperimentResult &r = cell.result;
    const LifecycleSummary &l = r.lifecycle;
    os << " lifecycle=" << l.clones << ',' << l.boots << ','
       << l.shutdowns << ',' << l.skippedArrivals << ','
       << l.framesFreed << ',' << l.recoveryTimeouts << ','
       << hex64(std::bit_cast<std::uint64_t>(l.meanUnmergeStorm)) << ','
       << hex64(std::bit_cast<std::uint64_t>(l.meanReclaimUs)) << ','
       << hex64(std::bit_cast<std::uint64_t>(l.meanRecoveryMs)) << ','
       << hex64(std::bit_cast<std::uint64_t>(l.p95RecoveryMs));
    for (const PhaseSnapshot &p : r.phases)
        os << " snap=" << p.tick << ',' << p.framesUsed << ','
           << p.mappedPages << ',' << p.liveVms;
    for (const McSummary &mc : r.perMc)
        os << " mc_lat=" << mc.handoffLatCount << ','
           << hex64(std::bit_cast<std::uint64_t>(mc.handoffLatP50Ticks))
           << ','
           << hex64(std::bit_cast<std::uint64_t>(mc.handoffLatP95Ticks));
    os << '\n';
}

} // namespace

std::string
simDigest(const RepResult &rep)
{
    // The campaign JSON carries every ExperimentResult field; host
    // fields are zeroed and profiling is off while it is written, so
    // traced and untraced repetitions serialize alike.
    CampaignReport report;
    report.jobs = 1;
    for (const CellRecord &cell : rep.cells) {
        CellOutcome outcome;
        outcome.cell = cell.cell;
        outcome.ok = cell.ok;
        outcome.error = cell.error;
        if (cell.ok) {
            outcome.result = cell.result;
            outcome.result.hostSeconds = 0.0;
            outcome.result.exec = ExecSummary{};
        }
        report.cells.push_back(std::move(outcome));
    }
    std::ostringstream text;
    const bool was_enabled = prof::enabled();
    prof::setEnabled(false);
    writeCampaignJson(report, text);
    prof::setEnabled(was_enabled);
    for (const CellRecord &cell : rep.cells)
        writeCounters(text, cell);

    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char ch : text.str()) {
        hash ^= ch;
        hash *= 0x100000001b3ULL;
    }
    return hex64(hash);
}

} // namespace hostbench
