/**
 * @file
 * Ablation: batch shape — tree traversal (Less/More encoding a BST)
 * versus arbitrary-set linear scan (Less == More == next), the two
 * policies of Section 4.2.
 *
 * Measures hardware comparisons and batches per lookup as the page
 * population grows: the tree needs O(log n) comparisons, the linear
 * scan O(n); both find exactly the same duplicates.
 */

#include <functional>
#include <iostream>
#include <vector>

#include "bench_common.hh"
#include "cache/hierarchy.hh"
#include "core/traversal_drivers.hh"
#include "sim/rng.hh"

using namespace pageforge;

namespace
{

/** Standalone hardware rig (no VMs needed). */
struct Rig
{
    EventQueue eq;
    PhysicalMemory mem{40000};
    MemController mc{"mc0", eq, mem, DramConfig{}};
    Hierarchy hier{"chip", eq, 2,
                   CacheConfig{"l1", 32 * 1024, 8, 2, 16},
                   CacheConfig{"l2", 256 * 1024, 8, 6, 16},
                   CacheConfig{"l3", 4 * 1024 * 1024, 16, 20, 16},
                   BusConfig{}, {&mc}};
    PageForgeModule module{"pf", eq, mc, hier, PageForgeConfig{}};
    PageForgeApi api{module};

    FrameId
    frameWithSeed(std::uint64_t seed)
    {
        FrameId frame = mem.allocFrame();
        Rng rng(seed);
        for (std::uint32_t i = 0; i < pageSize; ++i)
            mem.data(frame)[i] = static_cast<std::uint8_t>(rng.next());
        return frame;
    }
};

/** Build a balanced BST over sorted page indices as a GraphScanner graph. */
int
buildBst(std::vector<GraphScanner::GraphNode> &graph,
         const std::vector<FrameId> &sorted, int lo, int hi)
{
    if (lo > hi)
        return -1;
    int mid = (lo + hi) / 2;
    int node = static_cast<int>(graph.size());
    graph.push_back(GraphScanner::GraphNode{sorted[mid], -1, -1});
    int left = buildBst(graph, sorted, lo, mid - 1);
    int right = buildBst(graph, sorted, mid + 1, hi);
    graph[node].less = left;
    graph[node].more = right;
    return node;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv);
    (void)opts;

    TablePrinter table("Ablation: tree traversal vs linear set scan");
    table.setHeader({"Pages", "Tree cmp/lookup", "Tree batches",
                     "Linear cmp/lookup", "Linear batches"});

    for (unsigned n : {16u, 64u, 256u, 1024u}) {
        progress("population " + std::to_string(n));
        Rig rig;

        std::vector<FrameId> pages;
        for (unsigned i = 0; i < n; ++i)
            pages.push_back(rig.frameWithSeed(1000 + i));

        // Sort frames by content so a BST can be built over them.
        std::sort(pages.begin(), pages.end(),
                  [&](FrameId a, FrameId b) {
                      return comparePages(rig.mem.data(a),
                                          rig.mem.data(b)).sign < 0;
                  });

        std::vector<GraphScanner::GraphNode> graph;
        int root = buildBst(graph, pages, 0,
                            static_cast<int>(pages.size()) - 1);

        constexpr unsigned lookups = 20;
        Rng pick(7);

        // Tree lookups.
        GraphScanner tree_scanner(rig.api);
        std::uint64_t tree_cmp = 0;
        std::uint64_t tree_batches = 0;
        for (unsigned l = 0; l < lookups; ++l) {
            FrameId target = pages[pick.nextBounded(n)];
            FrameId cand = rig.mem.allocFrame(false);
            std::memcpy(rig.mem.data(cand), rig.mem.data(target),
                        pageSize);
            std::uint64_t before = rig.module.comparisons();
            auto result = tree_scanner.traverse(cand, graph, root);
            tree_cmp += rig.module.comparisons() - before;
            tree_batches += result.batches;
            if (result.matchNode < 0) {
                std::cerr << "tree lookup failed\n";
                return 1;
            }
            rig.mem.decRef(cand);
        }

        // Linear lookups over the same population.
        ArbitrarySetScanner linear_scanner(rig.api);
        std::uint64_t linear_cmp = 0;
        std::uint64_t linear_batches = 0;
        for (unsigned l = 0; l < lookups; ++l) {
            FrameId target = pages[pick.nextBounded(n)];
            FrameId cand = rig.mem.allocFrame(false);
            std::memcpy(rig.mem.data(cand), rig.mem.data(target),
                        pageSize);
            std::uint64_t before = rig.module.comparisons();
            auto result = linear_scanner.findDuplicate(cand, pages);
            linear_cmp += rig.module.comparisons() - before;
            linear_batches += result.batches;
            if (result.matchIndex < 0) {
                std::cerr << "linear lookup failed\n";
                return 1;
            }
            rig.mem.decRef(cand);
        }

        table.addRow({std::to_string(n),
                      TablePrinter::fmt(tree_cmp / double(lookups), 1),
                      TablePrinter::fmt(tree_batches / double(lookups),
                                        1),
                      TablePrinter::fmt(linear_cmp / double(lookups), 1),
                      TablePrinter::fmt(
                          linear_batches / double(lookups), 1)});
    }

    table.print(std::cout);
    std::cout << "\nExpected shape: tree comparisons grow ~log2(n), "
                 "linear comparisons ~n/2; both use the same hardware "
                 "and find the same duplicates (Section 4.2's "
                 "generality claim).\n";
    return 0;
}
