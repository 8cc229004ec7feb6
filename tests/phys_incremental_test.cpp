// Randomized differential oracle for incremental global routing
// (phys/incremental_route.hpp): for random topologies and random
// skip-insertion trajectories, a RoutingContext's repaired channel loads
// must be bit-identical to phys::global_route_loads run from scratch on the
// materialized child. The suite runs under both CI configurations (Release
// and ASan/UBSan Debug).
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/phys/incremental_route.hpp"
#include "shg/topo/generators.hpp"

namespace shg::phys {
namespace {

void expect_same_loads(const GlobalRoutingResult& got,
                       const GlobalRoutingResult& want,
                       const std::string& context) {
  EXPECT_EQ(got.h_loads, want.h_loads) << context;
  EXPECT_EQ(got.v_loads, want.v_loads) << context;
}

/// Appends the skip links of (row_skips, col_skips) to a copy of `base`,
/// skipping links the base already has (SlimNoC and torus bases own links
/// of skip shape).
topo::Topology append_skips(const topo::Topology& base,
                            const std::set<int>& row_skips,
                            const std::set<int>& col_skips) {
  topo::Topology child = base;
  topo::for_each_skip_link(
      base.rows(), base.cols(), row_skips, col_skips,
      [&](topo::TileCoord a, topo::TileCoord b) {
        if (!child.graph().has_edge(child.node(a), child.node(b))) {
          child.add_link(a, b);
        }
      });
  return child;
}

std::string fmt_case(int rows, int cols, const std::set<int>& pr,
                     const std::set<int>& pc, const std::set<int>& cr,
                     const std::set<int>& cc) {
  std::string s = std::to_string(rows) + "x" + std::to_string(cols) +
                  " parent SR={";
  for (int x : pr) s += std::to_string(x) + ",";
  s += "} SC={";
  for (int x : pc) s += std::to_string(x) + ",";
  s += "} child SR={";
  for (int x : cr) s += std::to_string(x) + ",";
  s += "} SC={";
  for (int x : cc) s += std::to_string(x) + ",";
  return s + "}";
}

TEST(RoutingContext, ParentLoadsMatchFromScratchRoute) {
  for (const auto& topo :
       {topo::make_mesh(6, 6), topo::make_sparse_hamming(8, 8, {3, 5}, {2}),
        topo::make_torus(5, 7), topo::make_slim_noc(5, 10)}) {
    const RoutingContext ctx(topo);
    expect_same_loads(ctx.loads(), global_route_loads(topo), topo.name());
  }
}

/// The core oracle: random SHG parents, random skip-superset children,
/// repaired via both the generic compare-based path and the skip fast
/// path — every load profile bit-identical to a fresh greedy run.
TEST(RoutingContext, RandomShgTrajectoriesBitIdentical) {
  Prng prng(0x1c0de5u);
  for (int trial = 0; trial < 40; ++trial) {
    const int rows = prng.range(2, 11);
    const int cols = prng.range(2, 11);
    std::set<int> parent_rows, parent_cols;
    for (int x = 2; x < cols; ++x) {
      if (prng.chance(0.35)) parent_rows.insert(x);
    }
    for (int x = 2; x < rows; ++x) {
      if (prng.chance(0.35)) parent_cols.insert(x);
    }
    const topo::Topology parent =
        topo::make_sparse_hamming(rows, cols, parent_rows, parent_cols);
    const RoutingContext ctx(parent);

    std::set<int> child_rows = parent_rows;
    std::set<int> child_cols = parent_cols;
    std::vector<int> new_rows, new_cols;
    for (int x = 2; x < cols; ++x) {
      if (child_rows.count(x) == 0 && prng.chance(0.4)) {
        child_rows.insert(x);
        new_rows.push_back(x);
      }
    }
    for (int x = 2; x < rows; ++x) {
      if (child_cols.count(x) == 0 && prng.chance(0.4)) {
        child_cols.insert(x);
        new_cols.push_back(x);
      }
    }
    const topo::Topology child =
        topo::make_sparse_hamming(rows, cols, child_rows, child_cols);
    const GlobalRoutingResult fresh = global_route_loads(child);
    const std::string ctx_str =
        fmt_case(rows, cols, parent_rows, parent_cols, child_rows,
                 child_cols);
    expect_same_loads(ctx.route_child_loads(child), fresh,
                      "generic: " + ctx_str);
    GlobalRoutingResult fast;
    ctx.route_child_loads(new_rows, new_cols, &fast);
    expect_same_loads(fast, fresh, "fast: " + ctx_str);
  }
}

/// Multi-step insertion trajectories: each accepted step re-keys the
/// context (fresh construction, as the screening engine does) and every
/// intermediate repair must stay exact.
TEST(RoutingContext, MultiStepTrajectoriesStayExact) {
  Prng prng(0xdac23u);
  for (int trial = 0; trial < 6; ++trial) {
    const int rows = prng.range(4, 9);
    const int cols = prng.range(4, 9);
    std::set<int> row_skips, col_skips;
    for (int step = 0; step < 5; ++step) {
      const topo::Topology parent =
          topo::make_sparse_hamming(rows, cols, row_skips, col_skips);
      const RoutingContext ctx(parent);
      std::vector<std::pair<bool, int>> choices;
      for (int x = 2; x < cols; ++x) {
        if (row_skips.count(x) == 0) choices.emplace_back(false, x);
      }
      for (int x = 2; x < rows; ++x) {
        if (col_skips.count(x) == 0) choices.emplace_back(true, x);
      }
      if (choices.empty()) break;
      const auto [is_col, x] = choices[prng.below(choices.size())];
      std::vector<int> new_rows, new_cols;
      if (is_col) {
        col_skips.insert(x);
        new_cols.push_back(x);
      } else {
        row_skips.insert(x);
        new_rows.push_back(x);
      }
      const topo::Topology child =
          topo::make_sparse_hamming(rows, cols, row_skips, col_skips);
      GlobalRoutingResult fast;
      ctx.route_child_loads(new_rows, new_cols, &fast);
      expect_same_loads(fast, global_route_loads(child),
                        "step " + std::to_string(step));
    }
  }
}

TEST(RoutingContext, SlimNocInsertionsUseJointRepair) {
  // Diagonal links couple the channel orientations, so SlimNoC children
  // exercise the joint-replay branch of the generic path.
  const topo::Topology parent = topo::make_slim_noc(5, 10);
  const RoutingContext ctx(parent);
  Prng prng(0x511Du);
  for (int trial = 0; trial < 6; ++trial) {
    std::set<int> row_skips, col_skips;
    for (int x = 2; x < 10; ++x) {
      if (prng.chance(0.3)) row_skips.insert(x);
    }
    for (int x = 2; x < 5; ++x) {
      if (prng.chance(0.3)) col_skips.insert(x);
    }
    const topo::Topology child = append_skips(parent, row_skips, col_skips);
    expect_same_loads(ctx.route_child_loads(child),
                      global_route_loads(child),
                      "slimnoc trial " + std::to_string(trial));
  }
  // The skip fast path requires the orientation split, which diagonals
  // invalidate — it must refuse rather than return non-identical loads.
  GlobalRoutingResult out;
  EXPECT_THROW(ctx.route_child_loads({3}, {}, &out), Error);
}

TEST(RoutingContext, TorusAppendSharesLengthClassWithWraps) {
  // A 6-wide torus owns row links of length 3 (none — wraps are length 5);
  // use an 8-wide torus whose wraps have length 7 and append skip 7 links:
  // the new links extend an existing length class, exercising the
  // parent-first-then-appended replay order of the fast path.
  const topo::Topology parent = topo::make_torus(4, 8);
  const RoutingContext ctx(parent);
  {
    // Appending a brand-new class (skip 3).
    const topo::Topology child = append_skips(parent, {3}, {});
    const GlobalRoutingResult fresh = global_route_loads(child);
    expect_same_loads(ctx.route_child_loads(child), fresh, "torus +3 generic");
    GlobalRoutingResult fast;
    ctx.route_child_loads({3}, {}, &fast);
    expect_same_loads(fast, fresh, "torus +3 fast");
  }
  {
    // Appending into the wraps' class (skip 7): for_each_skip_link yields
    // exactly the (r,0)-(r,7) links, which the torus already has — the
    // appended set is empty and the child equals the parent.
    const topo::Topology child = append_skips(parent, {7}, {});
    EXPECT_EQ(child.graph().num_edges(), parent.graph().num_edges());
    expect_same_loads(ctx.route_child_loads(child), ctx.loads(),
                      "torus +7 no-op");
  }
}

TEST(RoutingContext, ArbitraryChildrenFallBackToFullReroute) {
  // The generic path promises bit-identical loads for ANY child over the
  // grid — a child missing parent links simply diverges at its largest
  // class and re-routes from there (possibly everything).
  const topo::Topology parent =
      topo::make_sparse_hamming(6, 6, {2, 4}, {3});
  const RoutingContext ctx(parent);
  for (const auto& child :
       {topo::make_sparse_hamming(6, 6, {3}, {}),
        topo::make_sparse_hamming(6, 6, {}, {}),
        topo::make_sparse_hamming(6, 6, {5}, {2, 4})}) {
    expect_same_loads(ctx.route_child_loads(child),
                      global_route_loads(child), child.name());
  }
}

TEST(RoutingContext, DegenerateSingleRowAndColumnFabrics) {
  {
    const topo::Topology parent = topo::make_sparse_hamming(1, 9, {}, {});
    const RoutingContext ctx(parent);
    const topo::Topology child =
        topo::make_sparse_hamming(1, 9, {2, 5, 8}, {});
    const GlobalRoutingResult fresh = global_route_loads(child);
    GlobalRoutingResult fast;
    ctx.route_child_loads({2, 5, 8}, {}, &fast);
    expect_same_loads(fast, fresh, "1xN");
    expect_same_loads(ctx.route_child_loads(child), fresh, "1xN generic");
  }
  {
    const topo::Topology parent = topo::make_sparse_hamming(9, 1, {}, {});
    const RoutingContext ctx(parent);
    const topo::Topology child =
        topo::make_sparse_hamming(9, 1, {}, {2, 7});
    const GlobalRoutingResult fresh = global_route_loads(child);
    GlobalRoutingResult fast;
    ctx.route_child_loads({}, {2, 7}, &fast);
    expect_same_loads(fast, fresh, "Nx1");
  }
}

TEST(RoutingContext, EmptyDeltaReturnsParentLoads) {
  const topo::Topology parent = topo::make_sparse_hamming(7, 7, {3}, {4});
  const RoutingContext ctx(parent);
  GlobalRoutingResult out;
  ctx.route_child_loads({}, {}, &out);
  expect_same_loads(out, ctx.loads(), "empty delta");
  expect_same_loads(ctx.route_child_loads(parent), ctx.loads(),
                    "identical child");
}

TEST(RoutingContext, DiagonalInterleavingWithinClassIsDivergence) {
  // Regression: per-kind subsequence comparison alone misses a class whose
  // link *multiset* matches per kind but whose interleaving differs — a
  // diagonal's channel choice depends on the loads committed by same-class
  // aligned links routed before it, so reordering changes its decision.
  // The parent routes [h-link, diagonal], the child [diagonal, h-link];
  // every per-kind subsequence is equal, yet the loads differ, and the
  // repair must detect that and re-route rather than return parent loads.
  topo::Topology parent(topo::Kind::kCustom, "interleave-parent", 4, 4);
  parent.add_link({1, 0}, {1, 3});  // same-row, length 3
  parent.add_link({1, 0}, {2, 2});  // diagonal, length 3
  topo::Topology child(topo::Kind::kCustom, "interleave-child", 4, 4);
  child.add_link({1, 0}, {2, 2});
  child.add_link({1, 0}, {1, 3});

  const RoutingContext ctx(parent);
  expect_same_loads(ctx.route_child_loads(child), global_route_loads(child),
                    "reordered diagonal class");
  // Sanity: the orders genuinely route differently, so the case is not
  // vacuous.
  const GlobalRoutingResult parent_loads = global_route_loads(parent);
  const GlobalRoutingResult child_loads = global_route_loads(child);
  EXPECT_NE(parent_loads.h_loads, child_loads.h_loads);
}

/// The generic added-links overload: arbitrary links (diagonals included)
/// appended to arbitrary-family parents, bit-identical to a fresh greedy
/// run on the materialized child — the repair the family-generic screening
/// stack (customize::TopologyScreeningContext) drives.
TEST(RoutingContext, AddedLinksFastPathMatchesFreshRoute) {
  Prng prng(0xadd11u);
  const auto parents = {topo::make_mesh(6, 8),
                        topo::make_sparse_hamming(8, 8, {3, 5}, {2}),
                        topo::make_torus(5, 7), topo::make_slim_noc(5, 10)};
  for (const auto& parent : parents) {
    const RoutingContext ctx(parent);
    for (int trial = 0; trial < 6; ++trial) {
      // Random extra links absent from the parent, in random append order;
      // roughly a third end up diagonal, exercising the joint replay.
      topo::Topology child = parent;
      std::vector<GridLink> links;
      for (int k = 0; k < 1 + trial; ++k) {
        for (int attempt = 0; attempt < 50; ++attempt) {
          const int u = static_cast<int>(
              prng.below(static_cast<std::uint64_t>(parent.num_tiles())));
          const int v = static_cast<int>(
              prng.below(static_cast<std::uint64_t>(parent.num_tiles())));
          if (u == v || child.graph().has_edge(u, v)) continue;
          child.add_link(u, v);
          links.push_back(GridLink{child.coord(u), child.coord(v)});
          break;
        }
      }
      if (links.empty()) continue;
      GlobalRoutingResult repaired;
      ctx.route_child_loads(links, &repaired);
      const GlobalRoutingResult fresh = global_route_loads(child);
      expect_same_loads(repaired, fresh,
                        parent.name() + " trial " + std::to_string(trial));
    }
  }
}

TEST(RoutingContext, AddedLinksEmptyOrUnitDeltaReturnsParentLoads) {
  const topo::Topology parent = topo::make_sparse_hamming(6, 6, {3}, {});
  const RoutingContext ctx(parent);
  GlobalRoutingResult out;
  ctx.route_child_loads(std::vector<GridLink>{}, &out);
  expect_same_loads(out, ctx.loads(), "empty delta");
  // Unit links occupy no channel capacity: adding one leaves every load
  // profile bit-identical to the parent's (6x6 mesh+skip lacks no unit
  // link, so use a parent with a gap).
  topo::Topology gappy(topo::Kind::kCustom, "gappy", 3, 3);
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      if (r + 1 < 3) gappy.add_link({r, c}, {r + 1, c});
      if (c + 1 < 3 && r != 1) gappy.add_link({r, c}, {r, c + 1});
    }
  }
  const RoutingContext gap_ctx(gappy);
  GlobalRoutingResult unit_out;
  gap_ctx.route_child_loads(std::vector<GridLink>{GridLink{{1, 0}, {1, 1}}},
                            &unit_out);
  expect_same_loads(unit_out, gap_ctx.loads(), "unit-link delta");
}

TEST(RoutingContext, AddedLinksRejectsOutOfGridEndpoints) {
  const topo::Topology parent = topo::make_mesh(4, 4);
  const RoutingContext ctx(parent);
  GlobalRoutingResult out;
  EXPECT_THROW(ctx.route_child_loads(
                   std::vector<GridLink>{GridLink{{0, 0}, {0, 4}}}, &out),
               Error);
  EXPECT_THROW(ctx.route_child_loads(
                   std::vector<GridLink>{GridLink{{2, 2}, {2, 2}}}, &out),
               Error);
}

TEST(RoutingContext, FastPathRequiresAscendingSkips) {
  // Regression: the suffix replay walks the new skips with one descending
  // cursor; an unsorted list would silently drop whole link classes, so
  // it must throw instead.
  const topo::Topology parent = topo::make_sparse_hamming(8, 8, {}, {});
  const RoutingContext ctx(parent);
  GlobalRoutingResult out;
  EXPECT_THROW(ctx.route_child_loads({5, 3}, {}, &out), Error);
  EXPECT_THROW(ctx.route_child_loads({}, {4, 4}, &out), Error);
  ctx.route_child_loads({3, 5}, {}, &out);  // ascending is fine
  expect_same_loads(out,
                    global_route_loads(
                        topo::make_sparse_hamming(8, 8, {3, 5}, {})),
                    "ascending fast path");
}

TEST(RoutingContext, RejectsMismatchedGridsAndBadSkips) {
  const topo::Topology parent = topo::make_sparse_hamming(6, 6, {}, {});
  const RoutingContext ctx(parent);
  EXPECT_THROW(ctx.route_child_loads(topo::make_mesh(6, 7)), Error);
  GlobalRoutingResult out;
  EXPECT_THROW(ctx.route_child_loads({1}, {}, &out), Error);
  EXPECT_THROW(ctx.route_child_loads({6}, {}, &out), Error);
  EXPECT_THROW(ctx.route_child_loads({}, {0}, &out), Error);
}

}  // namespace
}  // namespace shg::phys
