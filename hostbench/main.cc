/**
 * @file
 * hostbench: host-time benchmark of the PageForge simulator.
 *
 *   hostbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             [--spans=FILE]
 *
 * Repeats the workload's cells back to back at jobs=1 until S seconds
 * have passed; an end-to-end host time is the sum over cells of each
 * cell's fastest repetition. --trace=0 prints the end-to-end metrics;
 * --trace=1 runs untraced repetitions, then traced ones (prof:: sites
 * on, replay probes after each cell), and prints the per-layer
 * metrics. After the timed repetitions, the
 * first cell of each mode is rerun through runExperiment() and must
 * match. The last line of standard output is one JSON object; the
 * exit code is nonzero when a correctness check fails.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <unistd.h>

#include "sim/host.hh"
#include "sim/logging.hh"
#include "sim/simd.hh"
#include "workload.hh"

#ifndef HOSTBENCH_BUILD_FLAGS
#define HOSTBENCH_BUILD_FLAGS "unknown"
#endif

using namespace hostbench;

namespace
{

/** Hard ceiling on one invocation, well inside a 180 s budget. */
constexpr double maxRunSeconds = 120.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\nusage: hostbench --workload=NAME "
                 "--seed=N --seconds=S --trace=0|1 [--spans=FILE]\n"
                 "workloads:",
                 why);
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto eq = arg.find('=');
        if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
            usage(("bad argument '" + arg + "'").c_str());
        std::string key = arg.substr(2, eq - 2);
        std::string value = arg.substr(eq + 1);
        char *end = nullptr;
        if (key == "workload") {
            opts.workload = value;
            have_workload = true;
        } else if (key == "seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("--seed takes a whole number");
        } else if (key == "seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(opts.seconds > 0.0))
                usage("--seconds takes a positive number");
        } else if (key == "trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opts.trace = value == "1";
        } else if (key == "spans") {
            opts.spansPath = value;
        } else {
            usage(("unknown option '--" + key + "'").c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opts.workload) ==
        names.end())
        usage(("unknown workload '" + opts.workload + "'").c_str());
    return opts;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantileNs(std::vector<std::uint32_t> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
    return v[idx];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Repetitions of one kind: all traced or all untraced. */
struct RepSet
{
    std::vector<RepResult> reps;

    /**
     * Run at least @p min_reps repetitions, then more while the next
     * one (predicted to last as long as the previous) still ends
     * within @p budget seconds of the first.
     */
    void
    run(const WorkloadSpec &spec, bool traced, double budget,
        unsigned min_reps, std::uint64_t run_start_ns)
    {
        const std::uint64_t start = prof::nowNs();
        double last = 0.0;
        for (;;) {
            double elapsed = (prof::nowNs() - start) * 1e-9;
            double total = (prof::nowNs() - run_start_ns) * 1e-9;
            bool want = reps.size() < min_reps || elapsed + last <= budget;
            if (!reps.empty() && (!want || total + last > maxRunSeconds))
                return;
            std::uint64_t t0 = prof::nowNs();
            reps.push_back(runRepetition(spec, traced));
            last = (prof::nowNs() - t0) * 1e-9;
        }
    }

    /**
     * Sum over cells of each cell's fastest time across repetitions of
     * @p fn. Every repetition does the same simulated work, so host
     * noise only ever adds time: a cell needs one repetition outside
     * a slow period for its time to hold, where a median needs most.
     */
    double
    cellMinSum(double (*fn)(const RepResult &, unsigned cell)) const
    {
        double sum = 0.0;
        for (unsigned c = 0; c < reps.front().cells.size(); ++c) {
            double fastest = fn(reps.front(), c);
            for (const RepResult &rep : reps)
                fastest = std::min(fastest, fn(rep, c));
            sum += fastest;
        }
        return sum;
    }
};

double
cellWall(const RepResult &rep, unsigned cell)
{
    return rep.cells[cell].wallSeconds;
}

double
cellSetup(const RepResult &rep, unsigned cell)
{
    double sum = 0.0;
    for (const Span &span : rep.spans)
        if (span.cell == cell && (span.phase == Phase::Construct ||
                                  span.phase == Phase::Deploy ||
                                  span.phase == Phase::Warmup))
            sum += span.seconds();
    return sum;
}

double
geomean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / v.size());
}

/** Ordered metric table: name -> (value, unit). */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        _rows.push_back({name, value, unit});
    }

    void
    print(std::FILE *out) const
    {
        for (const Row &row : _rows)
            std::fprintf(out, "  %-28s %16.6f %s\n", row.name.c_str(),
                         row.value, row.unit.c_str());
    }

    void
    printJson(std::FILE *out, bool correct, std::size_t attempted,
              std::size_t failed) const
    {
        std::fprintf(out,
                     "{\"correct\": %s, \"attempted\": %zu, "
                     "\"failed\": %zu, \"metrics\": {",
                     correct ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < _rows.size(); ++i) {
            double v = std::isfinite(_rows[i].value) ? _rows[i].value
                                                     : 0.0;
            std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": "
                              "\"%s\"}",
                         i ? ", " : "", _rows[i].name.c_str(), v,
                         _rows[i].unit.c_str());
        }
        std::fprintf(out, "}}\n");
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> _rows;
};

/** Correctness checks on one repetition's simulated results. */
std::vector<std::string>
checkRep(const RepResult &rep)
{
    std::vector<std::string> problems;
    for (const CellRecord &cell : rep.cells) {
        std::string id = cell.cell.app + "/" + dedupModeName(cell.cell.mode);
        if (!cell.ok) {
            problems.push_back(id + " failed: " + cell.error);
            continue;
        }
        const ExperimentResult &r = cell.result;
        if (r.queries == 0 || !(r.meanSojournMs > 0.0) ||
            !(r.p95SojournMs > 0.0) || !std::isfinite(r.meanSojournMs) ||
            !std::isfinite(r.p95SojournMs))
            problems.push_back(id + ": no valid sojourn latencies");
        if (cell.cell.mode != DedupMode::None &&
            !(r.dup.footprintRatio() < 1.0))
            problems.push_back(id + ": dedup mode saved no memory");
    }
    return problems;
}

void
endToEnd(Metrics &m, const RepSet &set, std::size_t attempted,
         std::size_t failed)
{
    const RepResult &first = set.reps.front();
    std::vector<double> means, p95s, footprint;
    std::uint64_t queries = 0;
    for (const CellRecord &cell : first.cells) {
        if (!cell.ok)
            continue;
        means.push_back(cell.result.meanSojournMs);
        p95s.push_back(cell.result.p95SojournMs);
        footprint.push_back(100.0 * cell.result.dup.footprintRatio());
        queries += cell.result.queries;
    }
    m.add("wall_s", set.cellMinSum(cellWall), "s");
    m.add("setup_s", set.cellMinSum(cellSetup), "s");
    m.add("peak_rss_mb", hostPeakRssKb() / 1024.0, "MB");
    m.add("ok_frac", 1.0 - ratio(failed, attempted), "ratio");
    m.add("mean_sojourn_ms", geomean(means), "ms");
    m.add("p95_sojourn_ms", geomean(p95s), "ms");
    m.add("mem_footprint_pct",
          footprint.empty() ? 0.0
                            : std::accumulate(footprint.begin(),
                                              footprint.end(), 0.0) /
                  footprint.size(),
          "%");
    std::printf("  (latencies over %llu queries in %zu cells)\n",
                static_cast<unsigned long long>(queries),
                first.cells.size());
}

/** Per-cell rows: median host seconds, then the cell's sim results. */
void
printCells(const RepSet &set)
{
    const RepResult &first = set.reps.front();
    std::printf("  %-9s %-9s %9s %8s %8s %10s %10s\n", "app", "mode",
                "wall_s", "setup_s", "queries", "mean_ms", "p95_ms");
    for (unsigned i = 0; i < first.cells.size(); ++i) {
        std::vector<double> wall, setup;
        for (const RepResult &rep : set.reps) {
            wall.push_back(cellWall(rep, i));
            setup.push_back(cellSetup(rep, i));
        }
        const CellRecord &cell = first.cells[i];
        std::printf("  %-9s %-9s %9.3f %8.3f %8llu %10.3f %10.3f\n",
                    cell.cell.app.c_str(), dedupModeName(cell.cell.mode),
                    median(wall), median(setup),
                    static_cast<unsigned long long>(cell.result.queries),
                    cell.result.meanSojournMs, cell.result.p95SojournMs);
    }
}

std::uint64_t
profNs(const RepResult &rep, prof::Site site)
{
    for (const prof::SiteStats &s : rep.profile)
        if (s.site == site)
            return s.totalNs;
    return 0;
}

/** Per-layer metrics of the traced repetitions. */
void
perLayer(Metrics &m, const RepSet &traced, const RepSet &untraced)
{
    // Simulated counts repeat exactly, so any repetition gives them;
    // host times are medians over the traced repetitions.
    const RepResult &rep = traced.reps.front();
    auto med = [&](auto fn) {
        std::vector<double> v;
        for (const RepResult &r : traced.reps)
            v.push_back(fn(r));
        return median(v);
    };
    auto phase = [&](Phase p) {
        return med([p](const RepResult &r) { return r.phaseSeconds(p); });
    };

    LayerCounters sum;
    std::uint64_t events = 0, queries = 0, merges = 0, cow = 0;
    std::uint64_t lane_quanta = 0, clones = 0, boots = 0, shutdowns = 0,
                  frames_freed = 0;
    unsigned warmup_passes = 0;
    double ksm_frac = 0.0, handoff_p95 = 0.0, recovery_p95 = 0.0;
    unsigned ksm_cells = 0;
    for (const CellRecord &cell : rep.cells) {
        const ExperimentResult &r = cell.result;
        sum += cell.counters;
        events += r.simEvents;
        queries += r.queries;
        merges += r.merges;
        cow += r.cowBreaks;
        warmup_passes += cell.warmupPasses;
        if (cell.cell.mode == DedupMode::Ksm) {
            ksm_frac += r.ksmCycleFracAvg;
            ++ksm_cells;
        }
        for (const McSummary &mc : r.perMc)
            handoff_p95 = std::max(handoff_p95, mc.handoffLatP95Ticks);
        clones += r.lifecycle.clones;
        boots += r.lifecycle.boots;
        shutdowns += r.lifecycle.shutdowns;
        frames_freed += r.lifecycle.framesFreed;
        recovery_p95 = std::max(recovery_p95, r.lifecycle.p95RecoveryMs);
    }
    // Lane telemetry is host time: median over the traced repetitions.
    auto lane = [&](std::uint64_t ExecSummary::*field) {
        return med([field](const RepResult &r) {
            double ns = 0.0;
            for (const CellRecord &cell : r.cells)
                ns += cell.result.exec.*field;
            return ns * 1e-9;
        });
    };
    for (const CellRecord &cell : rep.cells)
        lane_quanta += cell.result.exec.quanta;

    // Replay samples pooled over every traced repetition.
    ProbeSamples probes;
    for (const RepResult &r : traced.reps)
        for (const CellRecord &cell : r.cells)
            probes.append(cell.probes);

    const double settle_s = phase(Phase::Settle);
    const double window_s = phase(Phase::Window);
    const double warmup_s = phase(Phase::Warmup);

    m.add("system.construct_s", phase(Phase::Construct), "s");
    m.add("system.deploy_s", phase(Phase::Deploy), "s");
    m.add("system.collect_s", phase(Phase::Collect), "s");
    m.add("system.slowest_cell_s", med([](const RepResult &r) {
              double slowest = 0.0;
              for (const CellRecord &cell : r.cells)
                  slowest = std::max(slowest, cell.wallSeconds);
              return slowest;
          }),
          "s");

    m.add("dedup.warmup_s", warmup_s, "s");
    m.add("dedup.warmup_passes", warmup_passes, "count");
    m.add("dedup.ms_per_warmup_pass", 1e3 * ratio(warmup_s, warmup_passes),
          "ms");

    m.add("sim.settle_s", settle_s, "s");
    m.add("sim.window_s", window_s, "s");
    m.add("sim.events", static_cast<double>(events), "count");
    m.add("sim.host_ns_per_event",
          1e9 * ratio(settle_s + window_s, static_cast<double>(events)),
          "ns");
    m.add("sim.event_dispatch_s", med([](const RepResult &r) {
              return profNs(r, prof::Site::EventDispatch) * 1e-9;
          }),
          "s");
    m.add("sim.lane_quanta", static_cast<double>(lane_quanta), "count");
    m.add("sim.lane_phase1_s", lane(&ExecSummary::phase1Ns), "s");
    m.add("sim.lane_drain_s", lane(&ExecSummary::drainNs), "s");
    m.add("sim.lane_phase2_s", lane(&ExecSummary::phase2Ns), "s");

    m.add("workload.queries", static_cast<double>(queries), "count");
    m.add("workload.host_us_per_query",
          1e6 * ratio(window_s, static_cast<double>(queries)), "us");

    const double l1_acc = static_cast<double>(sum.l1Hits + sum.l1Misses);
    m.add("cache.l1_accesses", l1_acc, "count");
    m.add("cache.l1_hit_rate", ratio(sum.l1Hits, l1_acc), "ratio");
    m.add("cache.l2_hit_rate",
          ratio(sum.l2Hits, static_cast<double>(sum.l2Hits + sum.l2Misses)),
          "ratio");
    m.add("cache.l3_miss_rate",
          ratio(sum.l3Misses,
                static_cast<double>(sum.l3Hits + sum.l3Misses)),
          "ratio");
    m.add("cache.l3_app_miss_rate",
          ratio(sum.l3AppMisses, static_cast<double>(sum.l3AppAccesses)),
          "ratio");
    m.add("cache.access_ns.p50", quantileNs(probes.accessNs, 0.50), "ns");
    m.add("cache.access_ns.p99", quantileNs(probes.accessNs, 0.99), "ns");

    // Window accesses by servicing level times the replay's mean cost
    // at that level; the DRAM part of a memory access is left to
    // mem.est_s so the two estimates do not overlap.
    double read_line_mean = 0.0;
    for (std::uint32_t ns : probes.readLineNs)
        read_line_mean += ns;
    read_line_mean = ratio(read_line_mean,
                           static_cast<double>(probes.readLineNs.size()));
    double all_ns = 0.0;
    std::uint64_t all_n = 0;
    for (std::size_t s = 0; s < probes.accessesBySource.size(); ++s) {
        all_ns += probes.accessNsBySource[s];
        all_n += probes.accessesBySource[s];
    }
    auto level_ns = [&](AccessSource src) {
        auto s = static_cast<std::size_t>(src);
        return probes.accessesBySource[s]
            ? probes.accessNsBySource[s] / probes.accessesBySource[s]
            : ratio(all_ns, static_cast<double>(all_n));
    };
    const double cache_est =
        1e-9 *
        (sum.l1Hits * level_ns(AccessSource::L1) +
         sum.l2Hits * level_ns(AccessSource::L2) +
         sum.l3Hits * level_ns(AccessSource::L3) +
         sum.l3Misses *
             std::max(0.0, level_ns(AccessSource::Memory) - read_line_mean));
    const double mem_est =
        1e-9 * static_cast<double>(sum.dramReads + sum.dramWrites) *
        read_line_mean;
    m.add("cache.est_s", cache_est, "s");

    m.add("mem.dram_reads", static_cast<double>(sum.dramReads), "count");
    m.add("mem.dram_writes", static_cast<double>(sum.dramWrites), "count");
    m.add("mem.row_hit_rate",
          ratio(sum.rowHits, static_cast<double>(sum.rowHits + sum.rowMisses)),
          "ratio");
    m.add("mem.coalesced_reads", static_cast<double>(sum.coalescedReads),
          "count");
    m.add("mem.ecc_encodes", static_cast<double>(sum.eccEncodes), "count");
    m.add("mem.read_line_ns.p50", quantileNs(probes.readLineNs, 0.50),
          "ns");
    m.add("mem.est_s", mem_est, "s");
    m.add("ecc.compute_s", med([](const RepResult &r) {
              return profNs(r, prof::Site::EccCompute) * 1e-9;
          }),
          "s");

    m.add("hyper.merges", static_cast<double>(merges), "count");
    m.add("hyper.cow_breaks", static_cast<double>(cow), "count");
    m.add("hyper.soft_faults", static_cast<double>(sum.softFaults), "count");
    m.add("hyper.cow_write_ns.p50", quantileNs(probes.cowWriteNs, 0.50),
          "ns");

    m.add("ksm.pages_scanned", static_cast<double>(sum.ksmPagesScanned),
          "count");
    m.add("ksm.merges", static_cast<double>(sum.ksmMerges), "count");
    m.add("ksm.cycle_frac", ratio(ksm_frac, ksm_cells), "ratio");
    m.add("ksm.pass_s", ratio(probes.ksmPassSeconds, probes.ksmPasses),
          "s");
    m.add("ksm.us_per_page",
          1e6 * ratio(probes.ksmPassSeconds,
                      static_cast<double>(probes.ksmPassPages)),
          "us");
    m.add("ksm.tree_search_s", med([](const RepResult &r) {
              return profNs(r, prof::Site::ContentTreeSearch) * 1e-9;
          }),
          "s");

    m.add("core.pages_scanned", static_cast<double>(sum.pfPagesScanned),
          "count");
    m.add("core.batches", static_cast<double>(sum.pfBatches), "count");
    m.add("core.comparisons", static_cast<double>(sum.pfComparisons),
          "count");
    m.add("core.duplicates", static_cast<double>(sum.pfDuplicates),
          "count");
    m.add("core.lines_fetched", static_cast<double>(sum.pfLinesFetched),
          "count");
    std::uint64_t refills = 0, os_checks = 0;
    for (const CellRecord &cell : rep.cells) {
        refills += cell.result.pfRefills;
        os_checks += cell.result.pfOsChecks;
    }
    m.add("core.refills", static_cast<double>(refills), "count");
    m.add("core.os_checks", static_cast<double>(os_checks), "count");
    m.add("core.useful_ratio",
          ratio(sum.pfDuplicates, static_cast<double>(sum.pfComparisons)),
          "ratio");
    m.add("core.snoop_hit_ratio",
          ratio(sum.pfSnoopHits, static_cast<double>(sum.pfLinesFetched)),
          "ratio");
    m.add("core.pass_s", ratio(probes.pfPassSeconds, probes.pfPasses), "s");
    if (probes.pfPassesSkipped)
        std::printf("  (core.pass_s: %u of %u replayed passes skipped, "
                    "modules busy)\n",
                    probes.pfPassesSkipped,
                    probes.pfPassesSkipped + probes.pfPasses);
    m.add("core.scan_table_walk_s", med([](const RepResult &r) {
              return profNs(r, prof::Site::ScanTableWalk) * 1e-9;
          }),
          "s");

    m.add("shard.handoffs", static_cast<double>(sum.handoffs), "count");
    m.add("shard.handoff_p95_ticks", handoff_p95, "ticks");

    m.add("lifecycle.clones", static_cast<double>(clones), "count");
    m.add("lifecycle.boots", static_cast<double>(boots), "count");
    m.add("lifecycle.shutdowns", static_cast<double>(shutdowns), "count");
    m.add("lifecycle.frames_freed", static_cast<double>(frames_freed),
          "count");
    m.add("lifecycle.recovery_ms.p95", recovery_p95, "ms");

    m.add("attrib.unattributed_s", window_s - cache_est - mem_est, "s");
    m.add("trace.overhead_s",
          traced.cellMinSum(cellWall) - untraced.cellMinSum(cellWall),
          "s");
}

void
writeSpans(const std::string &path, const WorkloadSpec &spec,
           const std::vector<std::pair<const RepSet *, bool>> &sets)
{
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "hostbench: cannot write %s\n", path.c_str());
        return;
    }
    os << "{\"workload\":\"" << spec.name << "\",\"spans\":[";
    bool first = true;
    for (const auto &[set, traced] : sets) {
        for (std::size_t r = 0; r < set->reps.size(); ++r) {
            const RepResult &rep = set->reps[r];
            for (const Span &span : rep.spans) {
                const CellRecord &cell = rep.cells[span.cell];
                os << (first ? "" : ",") << "\n{\"traced\":"
                   << (traced ? "true" : "false") << ",\"rep\":" << r
                   << ",\"cell\":" << span.cell << ",\"app\":\""
                   << cell.cell.app << "\",\"mode\":\""
                   << dedupModeName(cell.cell.mode) << "\",\"phase\":\""
                   << phaseName(span.phase)
                   << "\",\"start_ns\":" << span.startNs
                   << ",\"end_ns\":" << span.endNs << "}";
                first = false;
            }
        }
    }
    os << "\n]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
    std::fprintf(stderr, "hostbench: refusing to report from an "
                         "unoptimised build (%s)\n",
                 HOSTBENCH_BUILD_FLAGS);
    return 2;
#endif
    Options opts = parseArgs(argc, argv);
    setLogLevel(LogLevel::Warn);
    const WorkloadSpec spec = workloadByName(opts.workload, opts.seed);
    const std::uint64_t run_start = prof::nowNs();

    RepSet untraced, traced;
    if (opts.trace) {
        untraced.run(spec, false, opts.seconds / 2, 1, run_start);
        traced.run(spec, true, opts.seconds / 2, 1, run_start);
    } else {
        untraced.run(spec, false, opts.seconds, 3, run_start);
    }

    // Correctness: every cell ran and audited clean, its results are
    // sane, and every repetition (traced or not) simulated exactly the
    // same machine.
    std::vector<std::string> problems;
    std::map<std::string, unsigned> digests;
    std::size_t attempted = 0, failed = 0;
    for (const RepSet *set : {&untraced, &traced}) {
        for (const RepResult &rep : set->reps) {
            for (const std::string &p : checkRep(rep))
                problems.push_back(p);
            ++digests[simDigest(rep)];
            attempted += rep.cells.size();
            failed += rep.failures();
        }
    }
    if (digests.size() != 1)
        problems.push_back("repetitions disagree on simulated results (" +
                           std::to_string(digests.size()) + " digests)");
    // Outside the timed repetitions: CellDriver must still
    // simulate what the campaign's runExperiment() does.
    for (const std::string &p :
         checkAgainstCampaign(spec, untraced.reps.front()))
        problems.push_back(p);

    // The lane executor in effect, as the machine built it: "none"
    // when no cell has lanes, else phase-2 worker threads (0 = serial).
    std::string lanes = "none";
    for (const CellRecord &cell : untraced.reps.front().cells)
        if (cell.laneThreads >= 0)
            lanes = std::to_string(cell.laneThreads);

    std::printf("hostbench %s seed=%llu trace=%d\n", spec.name.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.trace);
    std::printf("  stamp: nproc=%ld simd=%s build=\"%s\" jobs=1 "
                "num_mcs=%u lanes=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                simd::levelName(simd::activeLevel()),
                HOSTBENCH_BUILD_FLAGS, spec.sysTemplate.numMcs,
                lanes.c_str());
    std::printf("  reps: untraced=%zu traced=%zu cells/rep=%zu\n",
                untraced.reps.size(), traced.reps.size(),
                untraced.reps.front().cells.size());
    std::printf("  sim digest: %s\n", digests.begin()->first.c_str());
    for (const std::string &p : problems)
        std::printf("  CHECK FAILED: %s\n", p.c_str());
    printCells(opts.trace ? traced : untraced);

    Metrics metrics;
    if (opts.trace)
        perLayer(metrics, traced, untraced);
    else
        endToEnd(metrics, untraced, attempted, failed);
    metrics.print(stdout);

    if (!opts.spansPath.empty())
        writeSpans(opts.spansPath, spec,
                   {{&untraced, false}, {&traced, true}});

    const bool correct = problems.empty();
    metrics.printJson(stdout, correct, attempted, failed);
    std::fflush(stdout);
    return correct ? 0 : 1;
}
