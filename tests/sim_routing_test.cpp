// Routing-function correctness: delivery, progress, and deadlock freedom
// via exact-reachability channel dependency graphs (Dally & Seitz).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <queue>
#include <set>

#include "shg/graph/cdg.hpp"
#include "shg/sim/routing.hpp"
#include "shg/topo/generators.hpp"

namespace shg::sim {
namespace {

/// Directed channel id for the hop u -> v.
int channel_id(const topo::Topology& topo, int u, int v) {
  for (const auto& n : topo.graph().neighbors(u)) {
    if (n.node == v) {
      const auto& edge = topo.graph().edge(n.edge);
      return 2 * n.edge + (edge.u == u ? 0 : 1);
    }
  }
  ADD_FAILURE() << "not neighbors: " << u << " " << v;
  return -1;
}

int port_of(const topo::Topology& topo, int u, int v) {
  const auto& nbrs = topo.graph().neighbors(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i].node == v) return static_cast<int>(i);
  }
  return -1;
}

/// Builds the *reachable* channel dependency graph of a routing function:
/// states (channel u->v, vc, dest) are expanded exactly as a head flit
/// would experience them, so no spurious dependencies are added. Returns
/// the dependency edges over (channel, vc) vertices, optionally restricted
/// to a VC predicate (e.g. only the escape class).
std::vector<std::pair<int, int>> reachable_cdg(
    const topo::Topology& topo, const RoutingFunction& routing, int num_vcs,
    bool escape_only = false) {
  const int num_channels = 2 * topo.graph().num_edges();
  auto vertex = [num_vcs](int channel, int vc) {
    return channel * num_vcs + vc;
  };
  std::set<std::pair<int, int>> dependencies;

  for (int dest = 0; dest < topo.num_tiles(); ++dest) {
    // State: (node, in_vc, came_from) with came_from == -1 for injection.
    std::set<std::tuple<int, int, int>> visited;
    std::queue<std::tuple<int, int, int>> frontier;
    for (int src = 0; src < topo.num_tiles(); ++src) {
      if (src != dest) frontier.emplace(src, -1, -1);
    }
    while (!frontier.empty()) {
      const auto [node, in_vc, from] = frontier.front();
      frontier.pop();
      if (node == dest) continue;
      if (!visited.emplace(node, in_vc, from).second) continue;
      const int in_port = from < 0 ? -1 : port_of(topo, node, from);
      const auto candidates = routing.route(node, in_port, in_vc, dest);
      EXPECT_FALSE(candidates.empty());
      const int in_channel = from < 0 ? -1 : channel_id(topo, from, node);
      for (const auto& cand : candidates) {
        const int next =
            topo.graph().neighbors(node)[static_cast<std::size_t>(
                cand.out_port)].node;
        const int out_channel = channel_id(topo, node, next);
        for (int ov = cand.vc_begin; ov < cand.vc_end; ++ov) {
          if (in_channel >= 0) {
            if (!escape_only || (in_vc == 0 && ov == 0)) {
              dependencies.emplace(vertex(in_channel, in_vc),
                                   vertex(out_channel, ov));
            }
          }
          frontier.emplace(next, ov, node);
        }
      }
    }
  }
  (void)num_channels;
  return {dependencies.begin(), dependencies.end()};
}

/// Follows the first candidate from src to dest; returns hop count.
int walk(const topo::Topology& topo, const RoutingFunction& routing, int src,
         int dest) {
  int node = src;
  int in_vc = -1;
  int from = -1;
  int hops = 0;
  while (node != dest) {
    const int in_port = from < 0 ? -1 : port_of(topo, node, from);
    const auto candidates = routing.route(node, in_port, in_vc, dest);
    EXPECT_FALSE(candidates.empty());
    if (candidates.empty()) return -1;
    const auto& cand = candidates.front();
    from = node;
    node = topo.graph()
               .neighbors(node)[static_cast<std::size_t>(cand.out_port)]
               .node;
    in_vc = cand.vc_begin;
    if (++hops > topo.num_tiles() * 2) {
      ADD_FAILURE() << "routing loop " << src << " -> " << dest;
      return -1;
    }
  }
  return hops;
}

void expect_delivers_all_pairs(const topo::Topology& topo,
                               const RoutingFunction& routing) {
  for (int s = 0; s < topo.num_tiles(); ++s) {
    for (int d = 0; d < topo.num_tiles(); ++d) {
      if (s == d) continue;
      ASSERT_GE(walk(topo, routing, s, d), 1);
    }
  }
}

constexpr int kVcs = 4;

TEST(XYRouting, DeliversOnMesh) {
  const auto topo = topo::make_mesh(5, 7);
  const auto routing = make_xy_hamming_routing(topo, kVcs);
  expect_delivers_all_pairs(topo, *routing);
}

TEST(XYRouting, MeshHopsAreMinimal) {
  const auto topo = topo::make_mesh(6, 6);
  const auto routing = make_xy_hamming_routing(topo, kVcs);
  for (int s = 0; s < topo.num_tiles(); ++s) {
    for (int d = 0; d < topo.num_tiles(); ++d) {
      if (s == d) continue;
      const auto cs = topo.coord(s);
      const auto cd = topo.coord(d);
      EXPECT_EQ(walk(topo, *routing, s, d),
                std::abs(cs.row - cd.row) + std::abs(cs.col - cd.col));
    }
  }
}

TEST(XYRouting, ShgSkipsShortenPaths) {
  const auto mesh = topo::make_mesh(8, 8);
  const auto shg = topo::make_sparse_hamming(8, 8, {4}, {2, 5});
  const auto mesh_routing = make_xy_hamming_routing(mesh, kVcs);
  const auto shg_routing = make_xy_hamming_routing(shg, kVcs);
  long long mesh_total = 0;
  long long shg_total = 0;
  for (int s = 0; s < 64; ++s) {
    for (int d = 0; d < 64; ++d) {
      if (s == d) continue;
      mesh_total += walk(mesh, *mesh_routing, s, d);
      shg_total += walk(shg, *shg_routing, s, d);
    }
  }
  EXPECT_LT(shg_total, mesh_total * 2 / 3);
}

TEST(XYRouting, CdgAcyclicOnMeshFbShg) {
  for (const auto& topo :
       {topo::make_mesh(4, 4), topo::make_flattened_butterfly(4, 4),
        topo::make_sparse_hamming(5, 5, {2, 3}, {2, 4})}) {
    const auto routing = make_xy_hamming_routing(topo, kVcs);
    const auto edges = reachable_cdg(topo, *routing, kVcs);
    EXPECT_FALSE(graph::has_cycle(2 * topo.graph().num_edges() * kVcs, edges))
        << topo.name();
  }
}

TEST(XYRouting, CdgAcyclicOnTorusAndFoldedTorus) {
  for (const auto& topo :
       {topo::make_torus(4, 4), topo::make_torus(4, 6),
        topo::make_folded_torus(4, 4), topo::make_folded_torus(6, 4)}) {
    const auto routing = make_xy_hamming_routing(topo, kVcs);
    const auto edges = reachable_cdg(topo, *routing, kVcs);
    EXPECT_FALSE(graph::has_cycle(2 * topo.graph().num_edges() * kVcs, edges))
        << topo.name();
  }
}

TEST(XYRouting, DeliversOnTorusFamilies) {
  for (const auto& topo :
       {topo::make_torus(4, 6), topo::make_folded_torus(4, 6)}) {
    const auto routing = make_xy_hamming_routing(topo, kVcs);
    expect_delivers_all_pairs(topo, *routing);
  }
}

TEST(XYRouting, RequiresTwoVcsOnlyForCycles) {
  EXPECT_NO_THROW(make_xy_hamming_routing(topo::make_mesh(4, 4), 1));
  EXPECT_THROW(make_xy_hamming_routing(topo::make_torus(4, 4), 1), Error);
}

TEST(RingRouting, DeliversAndMinimal) {
  const auto topo = topo::make_ring(4, 4);
  const auto routing = make_ring_routing(topo, 2);
  expect_delivers_all_pairs(topo, *routing);
  // The cycle has 16 nodes: no pair is more than 8 hops apart.
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s != d) EXPECT_LE(walk(topo, *routing, s, d), 8);
    }
  }
}

TEST(RingRouting, CdgAcyclic) {
  const auto topo = topo::make_ring(4, 4);
  const auto routing = make_ring_routing(topo, 2);
  const auto edges = reachable_cdg(topo, *routing, 2);
  EXPECT_FALSE(graph::has_cycle(2 * topo.graph().num_edges() * 2, edges));
}

TEST(EcubeRouting, DeliversWithMinimalHops) {
  const auto topo = topo::make_hypercube(4, 8);
  const auto routing = make_ecube_routing(topo, kVcs);
  expect_delivers_all_pairs(topo, *routing);
  // Hop count equals the Hamming distance of the labels; spot-check the
  // diameter: opposite corner labels differ in all 5 bits.
  int max_hops = 0;
  for (int s = 0; s < 32; ++s) {
    for (int d = 0; d < 32; ++d) {
      if (s != d) max_hops = std::max(max_hops, walk(topo, *routing, s, d));
    }
  }
  EXPECT_EQ(max_hops, 5);
}

TEST(EcubeRouting, CdgAcyclic) {
  const auto topo = topo::make_hypercube(4, 4);
  const auto routing = make_ecube_routing(topo, 2);
  const auto edges = reachable_cdg(topo, *routing, 2);
  EXPECT_FALSE(graph::has_cycle(2 * topo.graph().num_edges() * 2, edges));
}

TEST(TableEscapeRouting, DeliversOnSlimNoc) {
  const auto topo = topo::make_slim_noc(5, 10);
  const auto routing = make_table_escape_routing(topo, kVcs);
  expect_delivers_all_pairs(topo, *routing);
}

TEST(TableEscapeRouting, AdaptiveHopsAreMinimal) {
  const auto topo = topo::make_slim_noc(5, 10);
  const auto routing = make_table_escape_routing(topo, kVcs);
  // First candidate is adaptive-minimal; diameter-2 graph: at most 2 hops.
  for (int s = 0; s < 50; ++s) {
    for (int d = 0; d < 50; ++d) {
      if (s != d) EXPECT_LE(walk(topo, *routing, s, d), 2);
    }
  }
}

TEST(TableEscapeRouting, EscapeSubnetworkCdgAcyclic) {
  for (const auto& topo :
       {topo::make_slim_noc(5, 10), topo::make_torus(4, 4),
        topo::make_mesh(4, 4)}) {
    const auto routing = make_table_escape_routing(topo, kVcs);
    const auto edges =
        reachable_cdg(topo, *routing, kVcs, /*escape_only=*/true);
    EXPECT_FALSE(graph::has_cycle(2 * topo.graph().num_edges() * kVcs, edges))
        << topo.name();
  }
}

TEST(TableEscapeRouting, EscapeCandidateAlwaysPresent) {
  const auto topo = topo::make_slim_noc(5, 10);
  const auto routing = make_table_escape_routing(topo, kVcs);
  for (int s = 0; s < 50; ++s) {
    for (int d = 0; d < 50; ++d) {
      if (s == d) continue;
      const auto candidates = routing->route(s, -1, -1, d);
      ASSERT_FALSE(candidates.empty());
      // Last candidate is the escape hop on VC 0.
      EXPECT_EQ(candidates.back().vc_begin, 0);
      EXPECT_EQ(candidates.back().vc_end, 1);
    }
  }
}

TEST(DefaultRouting, PicksFamilySpecificAlgorithm) {
  EXPECT_EQ(make_default_routing(topo::make_mesh(4, 4), 4)->name(),
            "xy-hamming-o1turn");
  EXPECT_EQ(make_default_routing(topo::make_mesh(4, 4), 1)->name(),
            "xy-hamming");
  EXPECT_EQ(make_default_routing(topo::make_ring(4, 4), 4)->name(),
            "ring-dateline");
  EXPECT_EQ(make_default_routing(topo::make_hypercube(4, 4), 4)->name(),
            "e-cube");
  EXPECT_EQ(make_default_routing(topo::make_slim_noc(5, 10), 4)->name(),
            "minimal-adaptive+escape");
  EXPECT_EQ(make_default_routing(topo::make_torus(4, 4), 4)->name(),
            "xy-hamming");
}

TEST(XYRouting, O1TurnOffersBothOrdersAtInjection) {
  const auto topo = topo::make_mesh(4, 4);
  const auto routing = make_xy_hamming_routing(topo, 4);
  // Corner to corner: XY candidates (east, class-0 VCs) and YX candidates
  // (south, class-1 VCs) must both be offered.
  const auto candidates = routing->route(topo.node(0, 0), -1, -1,
                                         topo.node(3, 3));
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].vc_begin, 0);
  EXPECT_EQ(candidates[0].vc_end, 2);
  EXPECT_EQ(candidates[1].vc_begin, 2);
  EXPECT_EQ(candidates[1].vc_end, 4);
  EXPECT_NE(candidates[0].out_port, candidates[1].out_port);
}

TEST(XYRouting, O1TurnClassesStickAfterInjection) {
  const auto topo = topo::make_mesh(4, 4);
  const auto routing = make_xy_hamming_routing(topo, 4);
  // A packet on a class-1 (YX) VC mid-route must only receive class-1
  // column moves while rows differ.
  const int node = topo.node(1, 0);
  const int dest = topo.node(3, 3);
  // Arrived from (0,0) going south on VC 2 (class 1).
  int in_port = -1;
  const auto& nbrs = topo.graph().neighbors(node);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (nbrs[i].node == topo.node(0, 0)) in_port = static_cast<int>(i);
  }
  ASSERT_GE(in_port, 0);
  const auto candidates = routing->route(node, in_port, 2, dest);
  ASSERT_FALSE(candidates.empty());
  for (const auto& cand : candidates) {
    EXPECT_EQ(cand.vc_begin, 2);
    EXPECT_EQ(cand.vc_end, 4);
    // Column move: next hop must stay in column 0.
    const int next = topo.graph()
                         .neighbors(node)[static_cast<std::size_t>(
                             cand.out_port)]
                         .node;
    EXPECT_EQ(topo.coord(next).col, 0);
  }
}

/// The XY rule as it stood before lines kept their neighbours sorted: take
/// the node's neighbours along the moving dimension, keep the monotone
/// steps that do not overshoot, and sort them by remaining distance. A
/// test-local copy for grids whose lines are all paths (mesh, FB, SHG,
/// Ruche): row-first with one VC class, O1TURN with two.
std::vector<RouteCandidate> filter_sort_xy(const topo::Topology& topo,
                                           int num_vcs, int node, int in_port,
                                           int in_vc, int dest) {
  const bool o1turn = num_vcs >= 2;
  const int half = num_vcs / 2;
  const auto order = [&](bool row_first, int cls) {
    const auto at = topo.coord(node);
    const auto to = topo.coord(dest);
    const bool in_row = row_first ? at.col != to.col : at.row == to.row;
    const int from = in_row ? at.col : at.row;
    const int target = in_row ? to.col : to.row;
    std::vector<int> steps;
    for (const auto& n : topo.graph().neighbors(node)) {
      const auto c = topo.coord(n.node);
      if (in_row ? c.row != at.row : c.col != at.col) continue;
      const int p = in_row ? c.col : c.row;
      const bool improves = std::abs(p - target) < std::abs(from - target);
      const bool monotone = from < target ? (p > from && p <= target)
                                          : (p < from && p >= target);
      if (improves && monotone) steps.push_back(p);
    }
    std::sort(steps.begin(), steps.end(), [target](int a, int b) {
      return std::abs(a - target) < std::abs(b - target);
    });
    std::vector<RouteCandidate> out;
    for (const int p : steps) {
      const int next = in_row ? topo.node(at.row, p) : topo.node(p, at.col);
      const int port = port_of(topo, node, next);
      out.push_back(!o1turn    ? RouteCandidate{port, 0, num_vcs}
                    : cls == 0 ? RouteCandidate{port, 0, half}
                               : RouteCandidate{port, half, num_vcs});
    }
    return out;
  };
  if (!o1turn) return order(/*row_first=*/true, 0);
  if (in_port < 0) {
    auto both = order(/*row_first=*/true, 0);
    const auto yx = order(/*row_first=*/false, 1);
    both.insert(both.end(), yx.begin(), yx.end());
    return both;
  }
  const int cls = in_vc < half ? 0 : 1;
  return order(/*row_first=*/cls == 0, cls);
}

TEST(XYRouting, SortedLineRangesEqualFilterAndSortOnEveryState) {
  for (const auto& topo :
       {topo::make_sparse_hamming(6, 7, {2, 3, 5}, {2, 4}),
        topo::make_ruche(7, 6, 3, 2), topo::make_flattened_butterfly(5, 4),
        topo::make_mesh(5, 6)}) {
    for (const int vcs : {1, 2, 4}) {
      const auto routing = make_xy_hamming_routing(topo, vcs);
      long long states = 0;
      for (int node = 0; node < topo.num_tiles(); ++node) {
        const int degree = topo.graph().degree(node);
        for (int slot = 0; slot < 1 + degree * vcs; ++slot) {
          const int in_port = slot == 0 ? -1 : (slot - 1) / vcs;
          const int in_vc = slot == 0 ? -1 : (slot - 1) % vcs;
          for (int dest = 0; dest < topo.num_tiles(); ++dest) {
            if (dest == node) continue;
            const auto expected =
                filter_sort_xy(topo, vcs, node, in_port, in_vc, dest);
            const auto actual = routing->route(node, in_port, in_vc, dest);
            ASSERT_EQ(actual.size(), expected.size())
                << topo.name() << " vcs " << vcs << " node " << node
                << " in_port " << in_port << " in_vc " << in_vc << " dest "
                << dest;
            for (std::size_t i = 0; i < expected.size(); ++i) {
              EXPECT_EQ(actual[i].out_port, expected[i].out_port);
              EXPECT_EQ(actual[i].vc_begin, expected[i].vc_begin);
              EXPECT_EQ(actual[i].vc_end, expected[i].vc_end);
            }
            ++states;
          }
        }
      }
      EXPECT_GT(states, 0);
    }
  }
}

/// route() writes at most max_candidates() entries on every state: the
/// buffer is padded with sentinels past the bound, and they must survive.
void expect_count_within_bound(const topo::Topology& topo,
                               const RoutingFunction& routing, int num_vcs) {
  const std::size_t bound = routing.max_candidates();
  ASSERT_GE(bound, 1u);
  constexpr std::size_t kPad = 8;
  const RouteCandidate sentinel{-7, -7, -7};
  std::vector<RouteCandidate> buffer(bound + kPad);
  std::size_t widest = 0;
  for (int node = 0; node < topo.num_tiles(); ++node) {
    const int degree = topo.graph().degree(node);
    for (int slot = 0; slot < 1 + degree * num_vcs; ++slot) {
      const int in_port = slot == 0 ? -1 : (slot - 1) / num_vcs;
      const int in_vc = slot == 0 ? -1 : (slot - 1) % num_vcs;
      for (int dest = 0; dest < topo.num_tiles(); ++dest) {
        if (dest == node) continue;
        std::fill(buffer.begin(), buffer.end(), sentinel);
        std::size_t count = 0;
        try {
          count = routing.route(node, in_port, in_vc, dest, buffer);
        } catch (const Error&) {
          continue;  // state the routing function rejects as unreachable
        }
        ASSERT_LE(count, bound) << routing.name() << " node " << node
                                << " in_port " << in_port << " dest " << dest;
        for (std::size_t i = bound; i < buffer.size(); ++i) {
          ASSERT_EQ(buffer[i].out_port, sentinel.out_port) << routing.name();
        }
        widest = std::max(widest, count);
      }
    }
  }
  EXPECT_GE(widest, 1u) << routing.name();
}

TEST(RoutingBound, CandidateCountNeverExceedsBound) {
  for (const auto& topo :
       {topo::make_mesh(5, 5), topo::make_torus(4, 5),
        topo::make_folded_torus(5, 4), topo::make_flattened_butterfly(4, 5),
        topo::make_sparse_hamming(6, 6, {2, 4}, {3}),
        topo::make_ruche(6, 6, 2, 3)}) {
    for (const int vcs : {2, 4}) {
      expect_count_within_bound(topo, *make_xy_hamming_routing(topo, vcs),
                                vcs);
    }
    expect_count_within_bound(topo, *make_ugal_routing(topo, 4, 11), 4);
  }
  expect_count_within_bound(topo::make_mesh(4, 4),
                            *make_xy_hamming_routing(topo::make_mesh(4, 4), 1),
                            1);
  const auto ring = topo::make_ring(4, 4);
  expect_count_within_bound(ring, *make_ring_routing(ring, 2), 2);
  const auto cube = topo::make_hypercube(4, 4);
  expect_count_within_bound(cube, *make_ecube_routing(cube, 2), 2);
  const auto slim = topo::make_slim_noc(5, 10);
  expect_count_within_bound(slim, *make_table_escape_routing(slim, 4), 4);
  expect_count_within_bound(slim, *make_ugal_routing(slim, 4, 11), 4);
}

}  // namespace
}  // namespace shg::sim
