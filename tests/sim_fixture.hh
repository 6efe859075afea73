/**
 * @file
 * Shared test fixture: a small machine (memory, controller, caches,
 * cores, hypervisor, one-shard map and router) for daemon-level tests.
 */

#ifndef PF_TESTS_SIM_FIXTURE_HH
#define PF_TESTS_SIM_FIXTURE_HH

#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cache/hierarchy.hh"
#include "cpu/core.hh"
#include "cpu/scheduler.hh"
#include "hyper/hypervisor.hh"
#include "mem/mem_controller.hh"
#include "shard/cross_mc_router.hh"
#include "shard/shard_map.hh"

namespace pageforge
{

/** A 4-core machine with small caches and a couple of VMs. */
class SmallMachine : public ::testing::Test
{
  protected:
    static constexpr unsigned numCores = 4;

    SmallMachine()
        : mem(2048), mc("mc0", eq, mem, DramConfig{}),
          hier("chip", eq, numCores,
               CacheConfig{"l1", 2 * 1024, 2, 2, 4},
               CacheConfig{"l2", 8 * 1024, 4, 6, 8},
               CacheConfig{"l3", 128 * 1024, 16, 20, 16},
               BusConfig{}, {&mc}),
          hyper("hv", eq, mem), shards(1), router(1)
    {
        // Audit frame refcounts against guest mappings after every
        // merge / CoW break / reclaim in every test on this fixture.
        hyper.setInvariantChecking(true);
        for (unsigned c = 0; c < numCores; ++c) {
            cores.push_back(std::make_unique<Core>(
                "core" + std::to_string(c), eq,
                static_cast<CoreId>(c)));
        }
    }

    std::vector<Core *>
    corePtrs()
    {
        std::vector<Core *> ptrs;
        for (auto &core : cores)
            ptrs.push_back(core.get());
        return ptrs;
    }

    /** Create a VM with @p pages mergeable pages, all touched. */
    VmId
    makeVm(std::size_t pages)
    {
        VmId vm = hyper.createVm("vm", pages);
        for (GuestPageNum gpn = 0; gpn < pages; ++gpn)
            hyper.touchPage(vm, gpn);
        hyper.markMergeable(vm, 0, pages);
        return vm;
    }

    /** Fill a guest page with a repeated byte. */
    void
    fillPage(VmId vm, GuestPageNum gpn, std::uint8_t value)
    {
        std::uint8_t buf[pageSize];
        std::memset(buf, value, pageSize);
        hyper.writeToPage(vm, gpn, 0, buf, pageSize);
    }

    /** Fill a guest page with seeded pseudo-random bytes. */
    void
    fillSeeded(VmId vm, GuestPageNum gpn, std::uint64_t seed)
    {
        Rng rng(seed);
        std::uint8_t buf[pageSize];
        for (auto &byte : buf)
            byte = static_cast<std::uint8_t>(rng.next());
        hyper.writeToPage(vm, gpn, 0, buf, pageSize);
    }

    EventQueue eq;
    PhysicalMemory mem;
    MemController mc;
    Hierarchy hier;
    Hypervisor hyper;
    // A one-MC machine is a one-shard machine, as System builds it.
    ShardMap shards;
    CrossMcRouter router;
    std::vector<std::unique_ptr<Core>> cores;
};

} // namespace pageforge

#endif // PF_TESTS_SIM_FIXTURE_HH
