// Route-table correctness: the precomputed table must agree with the live
// routing function on every reachable (node, in_port, in_vc, dest) state of
// every topology family, and the simulator must produce bit-identical
// results with no table (live routing) and with a shared table.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <span>

#include "shg/common/parallel.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/topo/generators.hpp"

namespace shg::sim {
namespace {

constexpr int kVcs = 4;

/// Exhaustive element-wise comparison of table lookups against live route()
/// calls, mirroring the lookup index logic independently of verify_against.
void expect_table_matches_live(const topo::Topology& topo,
                               const RoutingFunction& routing, int num_vcs) {
  const RouteTable table(topo, routing, num_vcs);
  EXPECT_EQ(table.num_vcs(), num_vcs);
  EXPECT_EQ(table.routing_name(), routing.name());
  long long states_checked = 0;
  for (int node = 0; node < topo.num_tiles(); ++node) {
    const int degree = topo.graph().degree(node);
    for (int slot = 0; slot < 1 + degree * num_vcs; ++slot) {
      const int in_port = slot == 0 ? -1 : (slot - 1) / num_vcs;
      const int in_vc = slot == 0 ? -1 : (slot - 1) % num_vcs;
      for (int dest = 0; dest < topo.num_tiles(); ++dest) {
        if (dest == node) continue;
        std::vector<RouteCandidate> expected;
        try {
          expected = routing.route(node, in_port, in_vc, dest);
        } catch (const Error&) {
          // State unreachable under the routing function's invariants: the
          // table must have stored an empty row.
          EXPECT_TRUE(table.lookup(node, in_port, in_vc, dest).empty())
              << topo.name() << " node " << node << " in_port " << in_port
              << " in_vc " << in_vc << " dest " << dest;
          continue;
        }
        const auto actual = table.lookup(node, in_port, in_vc, dest);
        ASSERT_EQ(actual.size(), expected.size())
            << topo.name() << " node " << node << " in_port " << in_port
            << " in_vc " << in_vc << " dest " << dest;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i].out_port, expected[i].out_port);
          EXPECT_EQ(actual[i].vc_begin, expected[i].vc_begin);
          EXPECT_EQ(actual[i].vc_end, expected[i].vc_end);
        }
        ++states_checked;
      }
    }
  }
  EXPECT_GT(states_checked, 0);
  // The built-in equivalence checker must agree with the manual sweep.
  EXPECT_NO_THROW(table.verify_against(routing));
}

TEST(RouteTable, MatchesLiveRoutingOnMesh) {
  const auto topo = topo::make_mesh(4, 5);
  const auto routing = make_xy_hamming_routing(topo, kVcs);
  expect_table_matches_live(topo, *routing, kVcs);
}

TEST(RouteTable, MatchesLiveRoutingOnTorus) {
  const auto topo = topo::make_torus(4, 4);
  const auto routing = make_xy_hamming_routing(topo, kVcs);
  expect_table_matches_live(topo, *routing, kVcs);
}

TEST(RouteTable, MatchesLiveRoutingOnShg) {
  const auto topo = topo::make_sparse_hamming(5, 5, {2, 3}, {2, 4});
  const auto routing = make_xy_hamming_routing(topo, kVcs);
  expect_table_matches_live(topo, *routing, kVcs);
}

TEST(RouteTable, MatchesLiveRoutingOnSlimNoc) {
  const auto topo = topo::make_slim_noc(5, 10);
  const auto routing = make_table_escape_routing(topo, kVcs);
  expect_table_matches_live(topo, *routing, kVcs);
}

TEST(RouteTable, MatchesLiveRoutingOnRing) {
  const auto topo = topo::make_ring(4, 4);
  const auto routing = make_ring_routing(topo, 2);
  expect_table_matches_live(topo, *routing, 2);
}

TEST(RouteTable, VerifyAgainstRejectsDifferentRouting) {
  // A table built for a 4x4 mesh's XY routing must fail verification
  // against the escape-table routing of the same topology (different
  // candidate sets for most states).
  const auto topo = topo::make_mesh(4, 4);
  const auto xy = make_xy_hamming_routing(topo, kVcs);
  const auto escape = make_table_escape_routing(topo, kVcs);
  const RouteTable table(topo, *xy, kVcs);
  EXPECT_THROW(table.verify_against(*escape), Error);
}

TEST(RouteTable, RejectsVcMismatchInRouter) {
  const auto topo = topo::make_mesh(3, 3);
  const auto routing = make_xy_hamming_routing(topo, 2);
  const RouteTable table(topo, *routing, 2);
  SimConfig config;
  config.num_vcs = 4;  // != table's 2
  EXPECT_THROW(Router(0, 2, 1, config, routing.get(), &table), Error);
}

TEST(RouteTable, SimulatorRejectsSharedTableForDifferentTopology) {
  const auto built_for = topo::make_mesh(3, 3);
  const auto other = topo::make_mesh(4, 4);
  const auto routing = make_default_routing(built_for, kVcs);
  const auto table =
      std::make_shared<const RouteTable>(built_for, *routing, kVcs);
  EXPECT_TRUE(table->matches(built_for));
  EXPECT_FALSE(table->matches(other));
  SimConfig config;
  config.num_vcs = kVcs;
  const auto pattern = make_uniform(other.num_tiles());
  const std::vector<int> latencies(
      static_cast<std::size_t>(other.graph().num_edges()), 1);
  EXPECT_THROW(
      Simulator(other, latencies, config, *pattern, 1, nullptr, table),
      Error);
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

/// The acceptance bar of the perf overhaul: latency distribution,
/// throughput and every other statistic must be identical with no table
/// (live routing) and with a shared table verified against the routing.
void expect_bit_identical_sim(const topo::Topology& topo) {
  SimConfig config;
  config.num_vcs = kVcs;
  config.injection_rate = 0.08;
  config.warmup_cycles = 300;
  config.measure_cycles = 900;
  const auto pattern = make_uniform(topo.num_tiles());

  Simulator untabled(topo, unit_latencies(topo), config, *pattern, 1);
  ASSERT_EQ(untabled.route_table(), nullptr);
  const SimResult live = untabled.run();
  const auto routing = make_policy_routing(topo, config);
  const auto table =
      std::make_shared<const RouteTable>(topo, *routing, config.num_vcs);
  table->verify_against(*routing);
  const SimResult tabled = Simulator(topo, unit_latencies(topo), config,
                                     *pattern, 1, nullptr, table)
                               .run();

  EXPECT_EQ(live.offered_rate, tabled.offered_rate);
  EXPECT_EQ(live.accepted_rate, tabled.accepted_rate);
  EXPECT_EQ(live.avg_packet_latency, tabled.avg_packet_latency);
  EXPECT_EQ(live.max_packet_latency, tabled.max_packet_latency);
  EXPECT_EQ(live.p50_packet_latency, tabled.p50_packet_latency);
  EXPECT_EQ(live.p95_packet_latency, tabled.p95_packet_latency);
  EXPECT_EQ(live.p99_packet_latency, tabled.p99_packet_latency);
  EXPECT_EQ(live.avg_hops, tabled.avg_hops);
  EXPECT_EQ(live.fairness, tabled.fairness);
  EXPECT_EQ(live.measured_packets, tabled.measured_packets);
  EXPECT_EQ(live.drained, tabled.drained);
  EXPECT_EQ(live.cycles_run, tabled.cycles_run);
}

TEST(RouteTable, SimResultsBitIdenticalOnShg) {
  expect_bit_identical_sim(topo::make_sparse_hamming(6, 6, {3}, {2}));
}

TEST(RouteTable, SimResultsBitIdenticalOnTorus) {
  expect_bit_identical_sim(topo::make_torus(4, 4));
}

TEST(RouteTable, SimResultsBitIdenticalOnSlimNoc) {
  expect_bit_identical_sim(topo::make_slim_noc(5, 10));
}

TEST(RouteTable, DedupCollapsesVcInsensitiveRows) {
  // XY-Hamming routing on an SHG picks the same continuation regardless of
  // the arrival VC, so rows differing only in in_vc must collapse behind
  // the row-index indirection: far fewer unique rows than logical rows,
  // and a smaller byte footprint than the one-range-per-row layout.
  const auto topo = topo::make_sparse_hamming(5, 5, {2, 3}, {2, 4});
  const auto routing = make_xy_hamming_routing(topo, kVcs);
  const RouteTable table(topo, *routing, kVcs);
  EXPECT_GT(table.num_rows(), table.num_unique_rows());
  // At kVcs = 4 the vc-insensitive rows alone bound unique rows well below
  // half of the logical count.
  EXPECT_LT(table.num_unique_rows(), table.num_rows() / 2);
  EXPECT_LT(table.num_candidates(), table.num_candidates_undeduped());
  EXPECT_LT(table.memory_bytes(), table.undeduped_memory_bytes());
}

TEST(RouteTable, DedupPreservesEveryLookup) {
  // Dedup is content-addressed, so it must be invisible through lookup():
  // already covered family by family above, re-asserted here on the escape
  // routing whose rows are the least regular.
  const auto topo = topo::make_slim_noc(5, 10);
  const auto routing = make_table_escape_routing(topo, kVcs);
  const RouteTable table(topo, *routing, kVcs);
  EXPECT_NO_THROW(table.verify_against(*routing));
  EXPECT_GE(table.num_candidates_undeduped(), table.num_candidates());
}

/// Builds `routing`'s table on the calling thread alone and on four workers
/// and requires both to hold exactly the layout of a serial single-pass
/// build: every state's candidates and arena offset, and the same four size
/// counters. The oracle is independent of RouteTable: one in-order pass
/// over the states with live route() calls, placing each novel candidate
/// list at the next free arena offset. Offsets are measured from the first
/// row (node 0 toward itself), which is always the empty list at offset 0.
/// `splits` asserts the table has at least two grains of rows, so its
/// four-worker build really runs as several tasks and merges their rows.
void expect_parallel_build_identical(const topo::Topology& topo,
                                     const RoutingFunction& routing,
                                     int num_vcs, bool splits) {
  set_max_threads(1);
  const RouteTable serial(topo, routing, num_vcs);
  set_max_threads(4);
  const RouteTable parallel(topo, routing, num_vcs);
  set_max_threads(0);
  if (splits) {
    EXPECT_GE(serial.num_rows(), 2 * RouteTable::kBuildGrainRows)
        << topo.name();
  }
  EXPECT_EQ(serial.num_rows(), parallel.num_rows());
  EXPECT_EQ(serial.num_unique_rows(), parallel.num_unique_rows());
  EXPECT_EQ(serial.memory_bytes(), parallel.memory_bytes());
  EXPECT_EQ(serial.undeduped_memory_bytes(), parallel.undeduped_memory_bytes());
  EXPECT_EQ(serial.num_candidates(), parallel.num_candidates());

  const auto same = [](const RouteCandidate& x, const RouteCandidate& y) {
    return x.out_port == y.out_port && x.vc_begin == y.vc_begin &&
           x.vc_end == y.vc_end;
  };
  // Plain loops with reused buffers: gtest macros or allocations per state
  // would dominate the sanitizer builds.
  std::map<std::vector<int>, std::ptrdiff_t> first_offset;
  std::ptrdiff_t next_offset = 0;
  std::size_t undeduped = 0;
  std::vector<RouteCandidate> buffer(routing.max_candidates());
  std::vector<int> key;
  for (int node = 0; node < topo.num_tiles(); ++node) {
    const int degree = topo.graph().degree(node);
    for (int slot = 0; slot < 1 + degree * num_vcs; ++slot) {
      const int in_port = slot == 0 ? -1 : (slot - 1) / num_vcs;
      const int in_vc = slot == 0 ? -1 : (slot - 1) % num_vcs;
      for (int dest = 0; dest < topo.num_tiles(); ++dest) {
        std::size_t count = 0;
        if (dest != node) {
          try {
            count = routing.route(node, in_port, in_vc, dest, buffer);
          } catch (const Error&) {
            count = 0;  // rejected state: stored empty
          }
        }
        const std::span<const RouteCandidate> expected(buffer.data(), count);
        undeduped += count;
        key.clear();
        for (const RouteCandidate& c : expected) {
          key.insert(key.end(), {c.out_port, c.vc_begin, c.vc_end});
        }
        auto it = first_offset.find(key);
        if (it == first_offset.end()) {
          it = first_offset.emplace(key, next_offset).first;
          next_offset += static_cast<std::ptrdiff_t>(count);
        }
        // Report the first difference of either table.
        for (const RouteTable* table : {&serial, &parallel}) {
          const auto actual = table->lookup(node, in_port, in_vc, dest);
          const RouteCandidate* base = table->lookup(0, -1, -1, 0).data();
          if (actual.data() - base != it->second ||
              !std::equal(actual.begin(), actual.end(), expected.begin(),
                          expected.end(), same)) {
            FAIL() << topo.name() << (table == &serial ? " serial" : " parallel")
                   << " build differs at node " << node << " in_port "
                   << in_port << " in_vc " << in_vc << " dest " << dest;
          }
        }
      }
    }
  }
  EXPECT_EQ(serial.num_unique_rows(), first_offset.size());
  EXPECT_EQ(serial.num_candidates(), static_cast<std::size_t>(next_offset));
  EXPECT_EQ(serial.num_candidates_undeduped(), undeduped);
}

// One fabric per routing-function shape is large enough to split into
// several tasks (O1TURN on SHG, dateline on the torus, ring, e-cube,
// escape, UGAL); mesh and Ruche stay one task and check the same layout.
TEST(RouteTableParallelBuild, IdenticalToSerialOnGridFamilies) {
  const auto mesh = topo::make_mesh(8, 8);
  expect_parallel_build_identical(mesh, *make_xy_hamming_routing(mesh, kVcs),
                                  kVcs, /*splits=*/false);
  const auto ruche = topo::make_ruche(9, 8, 3, 2);
  expect_parallel_build_identical(ruche, *make_xy_hamming_routing(ruche, 2), 2,
                                  /*splits=*/false);
  const auto torus = topo::make_torus(14, 14);
  expect_parallel_build_identical(torus, *make_xy_hamming_routing(torus, kVcs),
                                  kVcs, /*splits=*/true);
  const auto shg = topo::make_sparse_hamming(13, 13, {2, 4}, {2, 4});
  expect_parallel_build_identical(shg, *make_xy_hamming_routing(shg, 2), 2,
                                  /*splits=*/true);
}

TEST(RouteTableParallelBuild, IdenticalToSerialOnRingHypercubeSlimNoc) {
  const auto ring = topo::make_ring(16, 22);
  expect_parallel_build_identical(ring, *make_ring_routing(ring, 2), 2,
                                  /*splits=*/true);
  const auto cube = topo::make_hypercube(16, 16);
  expect_parallel_build_identical(cube, *make_ecube_routing(cube, 1), 1,
                                  /*splits=*/true);
  // Escape routing rejects some states by throwing: the tasks must store
  // those rows empty exactly as a serial build does.
  const auto slim = topo::make_slim_noc(8, 16);
  expect_parallel_build_identical(slim, *make_table_escape_routing(slim, 3), 3,
                                  /*splits=*/true);
}

TEST(RouteTableParallelBuild, IdenticalToSerialUnderUgal) {
  const auto mesh = topo::make_mesh(8, 8);
  expect_parallel_build_identical(mesh, *make_ugal_routing(mesh, kVcs, 7),
                                  kVcs, /*splits=*/false);
  const auto torus = topo::make_torus(14, 14);
  expect_parallel_build_identical(torus, *make_ugal_routing(torus, kVcs, 7),
                                  kVcs, /*splits=*/true);
}

TEST(RouteTable, SharedTableMatchesPrivateTable) {
  const auto topo = topo::make_mesh(4, 4);
  const auto routing = make_default_routing(topo, kVcs);
  const auto shared =
      std::make_shared<const RouteTable>(topo, *routing, kVcs);
  SimConfig config;
  config.num_vcs = kVcs;
  config.injection_rate = 0.05;
  config.warmup_cycles = 200;
  config.measure_cycles = 600;
  const auto pattern = make_uniform(topo.num_tiles());
  const SimResult with_private =
      Simulator(topo, unit_latencies(topo), config, *pattern, 1).run();
  const SimResult with_shared = Simulator(topo, unit_latencies(topo), config,
                                          *pattern, 1, nullptr, shared)
                                    .run();
  EXPECT_EQ(with_private.avg_packet_latency, with_shared.avg_packet_latency);
  EXPECT_EQ(with_private.accepted_rate, with_shared.accepted_rate);
  EXPECT_EQ(with_private.measured_packets, with_shared.measured_packets);
}

}  // namespace
}  // namespace shg::sim
