/**
 * @file
 * Custom merging policies on the PageForge hardware (Section 4.2).
 *
 * The Scan Table's Less/More successor indices are set by software,
 * so the same hardware serves policies beyond KSM's red-black trees:
 * this example compares a candidate page against (a) an arbitrary
 * set, by chaining every entry to the next, and (b) a page *graph*,
 * by encoding graph edges — and shows the ECC hash key arriving as a
 * by-product.
 *
 *   $ ./custom_merging_policy
 */

#include <cstring>
#include <iostream>

#include "core/traversal_drivers.hh"
#include "ecc/ecc_hash_key.hh"
#include "sim/rng.hh"

using namespace pageforge;

namespace
{

FrameId
makePage(PhysicalMemory &mem, std::uint64_t seed)
{
    FrameId frame = mem.allocFrame();
    Rng rng(seed);
    for (std::uint32_t i = 0; i < pageSize; ++i)
        mem.data(frame)[i] = static_cast<std::uint8_t>(rng.next());
    return frame;
}

} // namespace

int
main()
{
    // A bare hardware rig: memory, controller, a (cold) cache
    // hierarchy for coherence probes, and the PageForge module.
    EventQueue eq;
    PhysicalMemory mem(4096);
    MemController mc("mc0", eq, mem, DramConfig{});
    Hierarchy hier("chip", eq, 2,
                   CacheConfig{"l1", 32 * 1024, 8, 2, 16},
                   CacheConfig{"l2", 256 * 1024, 8, 6, 16},
                   CacheConfig{"l3", 1024 * 1024, 16, 20, 16},
                   BusConfig{}, {&mc});
    PageForgeModule module("pf", eq, mc, hier, PageForgeConfig{});
    PageForgeApi api(module);

    // ---- Policy 1: arbitrary-set comparison ----
    // 100 pages, one of which is a duplicate of the candidate.
    std::cout << "== Arbitrary-set policy ==\n";
    FrameId candidate = makePage(mem, 42);
    std::vector<FrameId> pool;
    for (int i = 0; i < 100; ++i)
        pool.push_back(makePage(mem, 1000 + i));
    pool[73] = makePage(mem, 42); // twin of the candidate

    ArbitrarySetScanner set_scanner(api);
    auto set_result = set_scanner.findDuplicate(candidate, pool);
    std::cout << "scanned " << pool.size() << " pages in "
              << set_result.batches << " Scan Table batches; duplicate "
              << (set_result.matchIndex >= 0
                      ? "found at index " +
                          std::to_string(set_result.matchIndex)
                      : std::string("not found"))
              << "\n";
    if (set_result.hashReady) {
        std::cout << "ECC hash key generated in the background: 0x"
                  << std::hex << set_result.eccHash << std::dec
                  << " (functional check: 0x" << std::hex
                  << eccPageHash(mem.data(candidate),
                                 module.config().eccOffsets)
                  << std::dec << ")\n";
    }

    // ---- Policy 2: page-graph traversal ----
    // A small DAG whose edges steer by compare outcome.
    std::cout << "\n== Graph-traversal policy ==\n";
    std::vector<GraphScanner::GraphNode> graph(7);
    for (int i = 0; i < 7; ++i) {
        FrameId frame = mem.allocFrame();
        std::memset(mem.data(frame),
                    static_cast<std::uint8_t>((i + 1) * 30), pageSize);
        graph[i].ppn = frame;
    }
    // BST-shaped: node 3 at the root.
    graph[3].less = 1;
    graph[3].more = 5;
    graph[1].less = 0;
    graph[1].more = 2;
    graph[5].less = 4;
    graph[5].more = 6;

    FrameId probe = mem.allocFrame();
    std::memset(mem.data(probe), 5 * 30, pageSize); // equals node 4

    GraphScanner graph_scanner(api);
    auto graph_result = graph_scanner.traverse(probe, graph, 3);
    std::cout << "traversal "
              << (graph_result.matchNode >= 0
                      ? "matched graph node " +
                          std::to_string(graph_result.matchNode)
                      : std::string("found no match"))
              << " in " << graph_result.batches << " batch(es)\n";

    // ---- What the hardware did, in total ----
    std::cout << "\nHardware totals: " << module.comparisons()
              << " page comparisons, " << module.linesFetched()
              << " line fetches, " << module.dramReads()
              << " DRAM reads, " << module.snoopHits()
              << " cache-snoop hits\n";
    std::cout << "Same silicon, three policies: tree (KSM), set, "
                 "graph.\n";
    return 0;
}
