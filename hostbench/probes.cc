#include "probes.hh"

#include <utility>

#include "prof/profiler.hh"

namespace hostbench
{

namespace
{

/** Lines (and pages) sampled per cell by each replay. */
constexpr std::size_t replayLines = 4096;
constexpr std::size_t cowPages = 1024;

/** Sync pass replay needs idle modules; give in-flight batches this long. */
constexpr unsigned drainSteps = 256;

std::uint32_t
elapsedNs(std::uint64_t start)
{
    return static_cast<std::uint32_t>(prof::nowNs() - start);
}

/**
 * Up to @p limit (core, line) pairs spread evenly over the mapped
 * pages of every live VM; @p salt picks which line of each page.
 */
std::vector<std::pair<CoreId, Addr>>
sampleLines(System &sys, std::size_t limit, unsigned salt)
{
    Hypervisor &hyper = sys.hypervisor();
    std::size_t mapped = hyper.mappedPageCount();
    std::size_t stride = mapped > limit ? mapped / limit : 1;
    std::vector<std::pair<CoreId, Addr>> lines;
    lines.reserve(limit);
    std::size_t seen = 0;
    for (VmId v = 0; v < hyper.numVms() && lines.size() < limit; ++v) {
        const VirtualMachine &vm = hyper.vm(v);
        if (!vm.alive())
            continue;
        for (GuestPageNum gpn = 0;
             gpn < vm.numPages() && lines.size() < limit; ++gpn) {
            const PageState &page = vm.page(gpn);
            if (!page.mapped || seen++ % stride)
                continue;
            auto line = static_cast<std::uint32_t>(
                (gpn * 7 + salt) % linesPerPage);
            lines.emplace_back(v % sys.numCores(),
                               lineAddr(page.frame, line));
        }
    }
    return lines;
}

void
replayHierarchy(System &sys, ProbeSamples &out)
{
    Hierarchy &h = sys.hierarchy();
    auto lines = sampleLines(sys, replayLines, 0);
    Tick now = sys.eventq().curTick();
    // Two sweeps, each touching a line twice: the first touch misses
    // (L3 or memory), the second hits L1, and the second sweep finds
    // lines the first left in the L2/L3. The per-source means then
    // cover every level the window's counters report.
    for (int sweep = 0; sweep < 2; ++sweep) {
        for (const auto &[core, addr] : lines) {
            for (int touch = 0; touch < 2; ++touch) {
                std::uint64_t t0 = prof::nowNs();
                AccessResult r =
                    h.access(core, addr, false, now, Requester::App);
                std::uint32_t ns = elapsedNs(t0);
                now += r.latency;
                out.accessNs.push_back(ns);
                auto src = static_cast<std::size_t>(r.source);
                out.accessNsBySource[src] += ns;
                ++out.accessesBySource[src];
            }
        }
    }
}

void
replayReadLine(System &sys, ProbeSamples &out)
{
    Hierarchy &h = sys.hierarchy();
    auto lines = sampleLines(sys, replayLines, 3);
    Tick now = sys.eventq().curTick();
    for (const auto &entry : lines) {
        Addr addr = entry.second;
        MemController &mc = h.mcFor(addr);
        std::uint64_t t0 = prof::nowNs();
        McReadResult r = mc.readLine(addr, now, Requester::App);
        out.readLineNs.push_back(elapsedNs(t0));
        now = r.done;
    }
}

void
replayKsmPass(Ksmd &ksmd, ProbeSamples &out)
{
    ksmd.stop();
    std::uint64_t before = ksmd.mergeStats().pagesScanned;
    std::uint64_t t0 = prof::nowNs();
    ksmd.runOnePassNow();
    out.ksmPassSeconds = static_cast<double>(prof::nowNs() - t0) * 1e-9;
    out.ksmPassPages = ksmd.mergeStats().pagesScanned - before;
    ++out.ksmPasses;
}

bool
modulesIdle(System &sys)
{
    for (unsigned m = 0; m < sys.numMcs(); ++m)
        if (PageForgeModule *module = sys.pfModule(m); module &&
            module->busy())
            return false;
    return true;
}

void
replayPfPass(System &sys, PageForgeDriver &driver, ProbeSamples &out)
{
    // A synchronous pass needs every module idle. Stop issuing work
    // and let in-flight batches finish; count the probe as skipped if
    // they don't.
    driver.stop();
    if (LifecycleManager *lc = sys.lifecycle())
        lc->stop();
    for (unsigned i = 0; i < drainSteps && !modulesIdle(sys); ++i)
        sys.run(driver.config().osCheckInterval);
    if (!modulesIdle(sys)) {
        ++out.pfPassesSkipped;
        return;
    }
    std::uint64_t t0 = prof::nowNs();
    out.pfPassPages = driver.runOnePassNow();
    out.pfPassSeconds = static_cast<double>(prof::nowNs() - t0) * 1e-9;
    ++out.pfPasses;
}

void
replayCowWrites(System &sys, ProbeSamples &out)
{
    Hypervisor &hyper = sys.hypervisor();
    PhysicalMemory &mem = sys.memory();
    const std::uint64_t value = 0x5a5a5a5a5a5a5a5aULL;
    for (VmId v = 0; v < hyper.numVms(); ++v) {
        const VirtualMachine &vm = hyper.vm(v);
        if (!vm.alive())
            continue;
        for (GuestPageNum gpn = 0; gpn < vm.numPages(); ++gpn) {
            if (out.cowWriteNs.size() >= cowPages)
                return;
            const PageState &page = vm.page(gpn);
            if (!page.mapped || mem.refCount(page.frame) < 2)
                continue;
            std::uint64_t t0 = prof::nowNs();
            hyper.writeToPage(v, gpn, 0, &value, sizeof(value));
            out.cowWriteNs.push_back(elapsedNs(t0));
        }
    }
}

template <typename T>
void
appendAll(std::vector<T> &dst, const std::vector<T> &src)
{
    dst.insert(dst.end(), src.begin(), src.end());
}

} // namespace

void
ProbeSamples::append(const ProbeSamples &other)
{
    appendAll(accessNs, other.accessNs);
    appendAll(readLineNs, other.readLineNs);
    appendAll(cowWriteNs, other.cowWriteNs);
    for (std::size_t s = 0; s < accessNsBySource.size(); ++s) {
        accessNsBySource[s] += other.accessNsBySource[s];
        accessesBySource[s] += other.accessesBySource[s];
    }
    ksmPassSeconds += other.ksmPassSeconds;
    ksmPassPages += other.ksmPassPages;
    ksmPasses += other.ksmPasses;
    pfPassSeconds += other.pfPassSeconds;
    pfPassPages += other.pfPassPages;
    pfPasses += other.pfPasses;
    pfPassesSkipped += other.pfPassesSkipped;
}

ProbeSamples
runProbes(System &sys)
{
    ProbeSamples out;
    replayHierarchy(sys, out);
    replayReadLine(sys, out);
    if (Ksmd *ksmd = sys.ksmd())
        replayKsmPass(*ksmd, out);
    if (PageForgeDriver *driver = sys.pfDriver())
        replayPfPass(sys, *driver, out);
    replayCowWrites(sys, out);
    return out;
}

} // namespace hostbench
