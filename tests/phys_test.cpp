// Tests for the physical model substrate: floorplan geometry, global
// routing and detailed routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/phys/detailed_route.hpp"
#include "shg/phys/floorplan.hpp"
#include "shg/phys/global_route.hpp"
#include "shg/topo/generators.hpp"

namespace shg::phys {
namespace {

Floorplan tiny_plan() {
  // 2x2 grid of 1x1 mm tiles with channels 0.1/0.2/0.3 horizontal and
  // 0.05/0.15/0.25 vertical; 10 um cells.
  return Floorplan(2, 2, 1.0, 1.0, {0.1, 0.2, 0.3}, {0.05, 0.15, 0.25},
                   0.01, 0.01);
}

TEST(Floorplan, PrefixGeometry) {
  const Floorplan plan = tiny_plan();
  EXPECT_DOUBLE_EQ(plan.chan_h_top(0), 0.0);
  EXPECT_DOUBLE_EQ(plan.row_top(0), 0.1);
  EXPECT_DOUBLE_EQ(plan.chan_h_top(1), 1.1);
  EXPECT_DOUBLE_EQ(plan.row_top(1), 1.3);
  EXPECT_DOUBLE_EQ(plan.chan_h_top(2), 2.3);
  EXPECT_DOUBLE_EQ(plan.chip_height(), 2.6);

  EXPECT_DOUBLE_EQ(plan.chan_v_left(0), 0.0);
  EXPECT_DOUBLE_EQ(plan.col_left(0), 0.05);
  EXPECT_DOUBLE_EQ(plan.chan_v_left(1), 1.05);
  EXPECT_DOUBLE_EQ(plan.col_left(1), 1.2);
  EXPECT_DOUBLE_EQ(plan.chip_width(), 2.45);
}

TEST(Floorplan, TileCenter) {
  const Floorplan plan = tiny_plan();
  const PointMM c = plan.tile_center(0, 0);
  EXPECT_DOUBLE_EQ(c.x, 0.55);
  EXPECT_DOUBLE_EQ(c.y, 0.6);
}

TEST(Floorplan, RejectsBadSpacingCounts) {
  EXPECT_THROW(Floorplan(2, 2, 1.0, 1.0, {0.1, 0.2}, {0.0, 0.0, 0.0}, 0.01,
                         0.01),
               Error);
  EXPECT_THROW(Floorplan(2, 2, 1.0, 1.0, {0.1, 0.2, -0.1}, {0.0, 0.0, 0.0},
                         0.01, 0.01),
               Error);
}

TEST(GlobalRoute, MeshIsAllStraight) {
  const auto topo = topo::make_mesh(4, 4);
  const GlobalRoutingResult result = global_route(topo);
  for (const auto& route : result.routes) {
    EXPECT_TRUE(route.straight);
    EXPECT_TRUE(route.spans.empty());
  }
  // Unit links occupy no channel capacity at all.
  for (int i = 0; i <= 4; ++i) {
    EXPECT_EQ(result.max_h_load(i), 0);
    EXPECT_EQ(result.max_v_load(i), 0);
  }
}

TEST(GlobalRoute, TorusWrapsSpreadOverChannels) {
  const auto topo = topo::make_torus(4, 4);
  const GlobalRoutingResult result = global_route(topo);
  int total_h = 0;
  int total_v = 0;
  for (int i = 0; i <= 4; ++i) {
    EXPECT_LE(result.max_h_load(i), 1) << "channel " << i;
    EXPECT_LE(result.max_v_load(i), 1) << "channel " << i;
    total_h += result.max_h_load(i);
    total_v += result.max_v_load(i);
  }
  // 4 row wraps and 4 column wraps must all be placed.
  EXPECT_EQ(total_h, 4);
  EXPECT_EQ(total_v, 4);
}

TEST(GlobalRoute, ShgSkipLoadsAreBalanced) {
  // Row skips of 4 on an 8x8 grid: 4 spans per row, all overlapping at the
  // center columns, so 32 spans over 9 channels cannot beat a peak of
  // ceil(32/9) = 4 — the greedy router must reach that optimum and must
  // spread load over many channels instead of piling onto one per row.
  const auto topo = topo::make_sparse_hamming(8, 8, {4}, {});
  const GlobalRoutingResult result = global_route(topo);
  int peak = 0;
  int used_channels = 0;
  for (int i = 0; i <= 8; ++i) {
    peak = std::max(peak, result.max_h_load(i));
    if (result.max_h_load(i) > 0) ++used_channels;
    EXPECT_EQ(result.max_v_load(i), 0);
  }
  EXPECT_EQ(peak, 4);
  EXPECT_GE(used_channels, 8);
}

TEST(GlobalRoute, DiagonalLinksGetLRoutes) {
  const auto topo = topo::make_slim_noc(5, 10);
  const GlobalRoutingResult result = global_route(topo);
  bool saw_l_route = false;
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    if (!topo.link_axis_aligned(e)) {
      const auto& route = result.routes[static_cast<std::size_t>(e)];
      ASSERT_EQ(route.spans.size(), 2u);
      EXPECT_TRUE(route.spans[0].horizontal);
      EXPECT_FALSE(route.spans[1].horizontal);
      saw_l_route = true;
    }
  }
  EXPECT_TRUE(saw_l_route);
}

TEST(GlobalRoute, FacesMatchChannels) {
  const auto topo = topo::make_sparse_hamming(4, 4, {2}, {2});
  const GlobalRoutingResult result = global_route(topo);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& route = result.routes[static_cast<std::size_t>(e)];
    if (route.straight) continue;
    const auto& edge = topo.graph().edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const auto cu = topo.coord(u);
    if (route.spans[0].horizontal) {
      // North face iff the channel above u's row was chosen.
      if (route.spans[0].index == cu.row) {
        EXPECT_EQ(route.face_u, Face::kNorth);
      } else {
        EXPECT_EQ(route.face_u, Face::kSouth);
        EXPECT_EQ(route.spans[0].index, cu.row + 1);
      }
    }
  }
}

TEST(GlobalRoute, LoadConservation) {
  // Every channel-span position increments exactly one load counter, so the
  // total load mass must equal the sum of span extents.
  for (const auto& topo :
       {topo::make_torus(6, 6), topo::make_sparse_hamming(6, 8, {3, 5}, {2}),
        topo::make_slim_noc(5, 10)}) {
    const GlobalRoutingResult result = global_route(topo);
    long long span_mass = 0;
    for (const auto& route : result.routes) {
      for (const auto& span : route.spans) {
        span_mass += span.hi - span.lo + 1;
      }
    }
    long long load_mass = 0;
    for (const auto& channel : result.h_loads) {
      for (int load : channel) load_mass += load;
    }
    for (const auto& channel : result.v_loads) {
      for (int load : channel) load_mass += load;
    }
    EXPECT_EQ(load_mass, span_mass) << topo.name();
  }
}

TEST(GlobalRoute, EveryNonUnitLinkHasSpans) {
  const auto topo = topo::make_sparse_hamming(6, 6, {2, 4}, {3});
  const GlobalRoutingResult result = global_route(topo);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& route = result.routes[static_cast<std::size_t>(e)];
    if (topo.link_grid_length(e) == 1) {
      EXPECT_TRUE(route.straight);
    } else {
      EXPECT_FALSE(route.straight);
      EXPECT_FALSE(route.spans.empty());
    }
  }
}

TEST(GlobalRoute, LoadAccessorsRejectOutOfRangeChannels) {
  // Regression: max_h_load / max_v_load silently read out-of-range channel
  // indices (vector UB), feeding garbage spacing into the cost model; they
  // must throw instead.
  const auto topo = topo::make_sparse_hamming(4, 6, {3}, {2});
  const GlobalRoutingResult result = global_route(topo);
  EXPECT_THROW(result.max_h_load(-1), Error);
  EXPECT_THROW(result.max_h_load(topo.rows() + 1), Error);
  EXPECT_THROW(result.max_v_load(-1), Error);
  EXPECT_THROW(result.max_v_load(topo.cols() + 1), Error);
  // In-range channels stay fine, including both boundary channels.
  EXPECT_GE(result.max_h_load(0), 0);
  EXPECT_GE(result.max_h_load(topo.rows()), 0);
  EXPECT_GE(result.max_v_load(topo.cols()), 0);
}

/// Golden channel-load profiles for canonical fabrics. These pin the greedy
/// router's exact output: a refactor that silently shifts one decision
/// changes a peak load, and with it the spacing and area the cost model
/// reports — this test makes that a loud failure instead.
TEST(GlobalRoute, GoldenLoadProfiles) {
  struct Golden {
    topo::Topology topo;
    std::vector<int> h;  ///< max_h_load per channel [0, rows]
    std::vector<int> v;  ///< max_v_load per channel [0, cols]
  };
  const Golden cases[] = {
      // 8x8 mesh: unit links cross channels directly, no channel capacity.
      {topo::make_mesh(8, 8),
       {0, 0, 0, 0, 0, 0, 0, 0, 0},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
      // The 10x10 SR={3,6} SC={3,6} SHG the benches customize toward.
      {topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6}),
       {5, 6, 7, 8, 8, 8, 8, 8, 8, 7, 7},
       {5, 6, 7, 8, 8, 8, 8, 8, 8, 7, 7}},
      // SlimNoC 5x10 (p = 5): L-shaped diagonals load both orientations.
      {topo::make_slim_noc(5, 10),
       {19, 21, 20, 20, 5, 5},
       {8, 10, 10, 10, 11, 12, 12, 12, 11, 10, 9}},
      // Single skip distance on 8x8 (the balanced-loads example above).
      {topo::make_sparse_hamming(8, 8, {4}, {}),
       {2, 3, 4, 4, 4, 4, 4, 4, 3},
       {0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const Golden& c : cases) {
    const GlobalRoutingResult result = global_route_loads(c.topo);
    ASSERT_EQ(c.h.size(), static_cast<std::size_t>(c.topo.rows()) + 1);
    ASSERT_EQ(c.v.size(), static_cast<std::size_t>(c.topo.cols()) + 1);
    for (int i = 0; i <= c.topo.rows(); ++i) {
      EXPECT_EQ(result.max_h_load(i), c.h[static_cast<std::size_t>(i)])
          << c.topo.name() << " h channel " << i;
    }
    for (int j = 0; j <= c.topo.cols(); ++j) {
      EXPECT_EQ(result.max_v_load(j), c.v[static_cast<std::size_t>(j)])
          << c.topo.name() << " v channel " << j;
    }
  }
}

/// Checks the route-shape invariants documented in global_route.hpp for
/// every link of a routed topology.
void expect_route_shapes(const topo::Topology& topo) {
  const GlobalRoutingResult result = global_route(topo);
  ASSERT_EQ(result.routes.size(),
            static_cast<std::size_t>(topo.graph().num_edges()));
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const GlobalRoute& route = result.routes[static_cast<std::size_t>(e)];
    const auto& edge = topo.graph().edge(e);
    const auto [u, v] = std::minmax(edge.u, edge.v);
    const topo::TileCoord cu = topo.coord(u);
    const topo::TileCoord cv = topo.coord(v);
    const int len = topo.link_grid_length(e);
    if (len == 1) {
      // Unit links cross the shared channel directly.
      EXPECT_TRUE(route.straight) << topo.name() << " edge " << e;
      EXPECT_TRUE(route.spans.empty()) << topo.name() << " edge " << e;
      continue;
    }
    EXPECT_FALSE(route.straight) << topo.name() << " edge " << e;
    if (topo.link_axis_aligned(e)) {
      // Aligned links occupy exactly one span along their own row/column.
      ASSERT_EQ(route.spans.size(), 1u) << topo.name() << " edge " << e;
      const ChannelSpan& span = route.spans[0];
      EXPECT_EQ(span.horizontal, cu.row == cv.row);
      EXPECT_EQ(span.hi - span.lo, len) << "span covers the link extent";
      // Both ports sit on the same face, matching the chosen channel.
      EXPECT_EQ(route.face_u, route.face_v);
      if (span.horizontal) {
        EXPECT_TRUE(span.index == cu.row || span.index == cu.row + 1);
        EXPECT_EQ(route.face_u,
                  span.index == cu.row ? Face::kNorth : Face::kSouth);
        EXPECT_EQ(span.lo, std::min(cu.col, cv.col));
      } else {
        EXPECT_TRUE(span.index == cu.col || span.index == cu.col + 1);
        EXPECT_EQ(route.face_u,
                  span.index == cu.col ? Face::kWest : Face::kEast);
        EXPECT_EQ(span.lo, std::min(cu.row, cv.row));
      }
    } else {
      // Diagonal links take exactly one L: a horizontal span in u's row
      // channel pair, then a vertical span in v's column channel pair,
      // with the faces consistent with the chosen channels.
      ASSERT_EQ(route.spans.size(), 2u) << topo.name() << " edge " << e;
      const ChannelSpan& hspan = route.spans[0];
      const ChannelSpan& vspan = route.spans[1];
      EXPECT_TRUE(hspan.horizontal);
      EXPECT_FALSE(vspan.horizontal);
      EXPECT_TRUE(hspan.index == cu.row || hspan.index == cu.row + 1);
      EXPECT_TRUE(vspan.index == cv.col || vspan.index == cv.col + 1);
      EXPECT_EQ(route.face_u,
                hspan.index == cu.row ? Face::kNorth : Face::kSouth);
      EXPECT_EQ(route.face_v,
                vspan.index == cv.col ? Face::kWest : Face::kEast);
      EXPECT_EQ(hspan.lo, std::min(cu.col, cv.col));
      EXPECT_EQ(hspan.hi, std::max(cu.col, cv.col));
      EXPECT_EQ(vspan.lo, std::min(cu.row, cv.row));
      EXPECT_EQ(vspan.hi, std::max(cu.row, cv.row));
    }
  }
}

/// Property test over topo::for_each_skip_link: every skip-generated link
/// of randomized SHG parameterizations satisfies the shape invariants,
/// including degenerate one-row and one-column fabrics.
TEST(GlobalRoute, SkipLinkRouteShapeInvariants) {
  Prng prng(0x5ba9e5u);
  for (int trial = 0; trial < 12; ++trial) {
    const int rows = prng.range(1, 9);
    const int cols = rows == 1 ? prng.range(2, 9) : prng.range(1, 9);
    std::set<int> row_skips, col_skips;
    for (int x = 2; x < cols; ++x) {
      if (prng.chance(0.4)) row_skips.insert(x);
    }
    for (int x = 2; x < rows; ++x) {
      if (prng.chance(0.4)) col_skips.insert(x);
    }
    // The generated topology and the enumeration agree by construction;
    // assert it anyway so the route-shape claims below are anchored.
    const topo::Topology topo =
        topo::make_sparse_hamming(rows, cols, row_skips, col_skips);
    int skip_links = 0;
    topo::for_each_skip_link(rows, cols, row_skips, col_skips,
                             [&](topo::TileCoord a, topo::TileCoord b) {
                               EXPECT_TRUE(topo.graph().has_edge(
                                   topo.node(a), topo.node(b)));
                               ++skip_links;
                             });
    const int mesh_links =
        rows * (cols - 1) + cols * (rows - 1);
    EXPECT_EQ(topo.graph().num_edges(), mesh_links + skip_links);
    expect_route_shapes(topo);
  }
  // Degenerate fabrics with explicit skip sets.
  expect_route_shapes(topo::make_sparse_hamming(1, 8, {2, 3, 7}, {}));
  expect_route_shapes(topo::make_sparse_hamming(8, 1, {}, {2, 5, 7}));
  // Diagonal (SlimNoC) links exercise the L-shape invariants.
  expect_route_shapes(topo::make_slim_noc(5, 10));
  expect_route_shapes(topo::make_torus(5, 7));
}

class DetailedRouteFixture : public ::testing::Test {
 protected:
  // Builds a floorplan sized like the cost model would for the topology:
  // 1 mm wide tiles `aspect` mm high, spacing = peak load * cell size,
  // 10 um cells unless `cell` says otherwise.
  static Floorplan plan_for(const topo::Topology& topo,
                            const GlobalRoutingResult& global,
                            double aspect = 1.0, double cell = 0.01) {
    std::vector<double> h_spacing(static_cast<std::size_t>(topo.rows()) + 1);
    std::vector<double> v_spacing(static_cast<std::size_t>(topo.cols()) + 1);
    for (int i = 0; i <= topo.rows(); ++i) {
      h_spacing[static_cast<std::size_t>(i)] = global.max_h_load(i) * cell;
    }
    for (int j = 0; j <= topo.cols(); ++j) {
      v_spacing[static_cast<std::size_t>(j)] = global.max_v_load(j) * cell;
    }
    return Floorplan(topo.rows(), topo.cols(), 1.0, aspect,
                     std::move(h_spacing), std::move(v_spacing), cell, cell);
  }
};

TEST_F(DetailedRouteFixture, MeshLinksAreTilePitchLong) {
  const auto topo = topo::make_mesh(4, 4);
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  ASSERT_EQ(detailed.routes.size(),
            static_cast<std::size_t>(topo.graph().num_edges()));
  for (const auto& route : detailed.routes) {
    // Zero-width channels: the channel crossing has zero length and the
    // total is the two half-tile runs from the ports to the router centers.
    EXPECT_NEAR(route.channel_length_mm, 0.0, 1e-9);
    EXPECT_NEAR(route.total_length_mm, 1.0, 1e-9);
  }
  EXPECT_EQ(detailed.collision_cells, 0);
}

TEST_F(DetailedRouteFixture, LongLinkLengthScalesWithSpan) {
  const auto topo = topo::make_sparse_hamming(4, 4, {3}, {});
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    if (topo.link_grid_length(e) == 3) {
      // Three tile pitches in the channel plus the two half-tile runs from
      // the north/south ports down to the router centers.
      EXPECT_GT(detailed.routes[static_cast<std::size_t>(e)].total_length_mm,
                3.5);
      EXPECT_LT(detailed.routes[static_cast<std::size_t>(e)].total_length_mm,
                4.8);
    }
  }
}

TEST_F(DetailedRouteFixture, ParallelRunsLandInDistinctCells) {
  // Flattened butterfly rows produce many parallel spans; with left-edge
  // track assignment inside adequately sized channels, the only possible
  // collisions are port jogs, which must stay a small fraction of cells.
  const auto topo = topo::make_flattened_butterfly(4, 4);
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  EXPECT_GT(detailed.h_cells, 0);
  EXPECT_GT(detailed.v_cells, 0);
  EXPECT_LT(static_cast<double>(detailed.collision_cells),
            0.05 * static_cast<double>(detailed.h_cells + detailed.v_cells));
}

TEST_F(DetailedRouteFixture, LengthsDominateManhattanLowerBound) {
  // No detailed route can be shorter than the Manhattan distance between
  // the two router centers (tile pitch 1 mm + channel widths).
  const auto topo = topo::make_sparse_hamming(5, 5, {3}, {2});
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& edge = topo.graph().edge(e);
    const auto cu = topo.coord(edge.u);
    const auto cv = topo.coord(edge.v);
    const PointMM a = plan.tile_center(cu.row, cu.col);
    const PointMM b = plan.tile_center(cv.row, cv.col);
    EXPECT_GE(detailed.routes[static_cast<std::size_t>(e)].total_length_mm,
              manhattan(a, b) - 1e-9)
        << "edge " << e;
  }
}

TEST_F(DetailedRouteFixture, SegmentsStartAndEndAtPorts) {
  const auto topo = topo::make_torus(4, 4);
  const auto global = global_route(topo);
  const auto plan = plan_for(topo, global);
  const auto detailed = detailed_route(topo, plan, global);
  for (graph::EdgeId e = 0; e < topo.graph().num_edges(); ++e) {
    const auto& segs = detailed.routes[static_cast<std::size_t>(e)].segments;
    ASSERT_FALSE(segs.empty());
    // Consecutive segments must be connected.
    for (std::size_t i = 0; i + 1 < segs.size(); ++i) {
      EXPECT_EQ(segs[i].b, segs[i + 1].a);
    }
  }
}

// Brute-force step-5 cell counts: every cell of every segment, a set per
// link for the per-link dedup and a map across links for the tallies.
struct CellTally {
  long long h = 0, v = 0, collision = 0;
};

CellTally brute_force_cells(const DetailedRoutingResult& detailed,
                            const Floorplan& plan) {
  using Cell = std::tuple<bool, long long, long long>;  // horizontal, x, y
  const auto ix = [&](double x) {
    return static_cast<long long>(std::floor(x / plan.cell_w()));
  };
  const auto iy = [&](double y) {
    return static_cast<long long>(std::floor(y / plan.cell_h()));
  };
  std::map<Cell, int> links_per_cell;
  for (const DetailedRoute& route : detailed.routes) {
    std::set<Cell> cells;
    for (const Segment& seg : route.segments) {
      if (seg.length() <= 0.0) continue;
      if (seg.horizontal) {
        const auto [x0, x1] = std::minmax(seg.a.x, seg.b.x);
        for (long long x = ix(x0); x <= ix(x1); ++x) {
          cells.emplace(true, x, iy(seg.a.y));
        }
      } else {
        const auto [y0, y1] = std::minmax(seg.a.y, seg.b.y);
        for (long long y = iy(y0); y <= iy(y1); ++y) {
          cells.emplace(false, ix(seg.a.x), y);
        }
      }
    }
    for (const Cell& cell : cells) ++links_per_cell[cell];
  }
  CellTally tally;
  for (const auto& [cell, links] : links_per_cell) {
    ++(std::get<0>(cell) ? tally.h : tally.v);
    if (links >= 2) ++tally.collision;
  }
  return tally;
}

TEST_F(DetailedRouteFixture, CellCountsMatchBruteForceOracle) {
  // Every family at small sizes, three tile aspects and two cell sizes:
  // the run-sweep counter must equal the cell-by-cell tally exactly.
  const std::pair<std::string, topo::Topology> fabrics[] = {
      {"mesh 5x7", topo::make_mesh(5, 7)},
      {"torus 6x6", topo::make_torus(6, 6)},
      {"folded torus 5x7", topo::make_folded_torus(5, 7)},
      {"flattened butterfly 4x6", topo::make_flattened_butterfly(4, 6)},
      {"flattened butterfly 8x8", topo::make_flattened_butterfly(8, 8)},
      {"hypercube 4x8", topo::make_hypercube(4, 8)},
      {"slim noc 4x8", topo::make_slim_noc(4, 8)},
      {"slim noc 5x10", topo::make_slim_noc(5, 10)},
      {"ruche 6x8", topo::make_ruche(6, 8, 3, 2)},
      {"shg 5x5", topo::make_sparse_hamming(5, 5, {3}, {2})},
      {"shg 4x8 row skips", topo::make_sparse_hamming(4, 8, {2, 3}, {})},
      {"shg 8x8", topo::make_sparse_hamming(8, 8, {2, 5, 7}, {3, 4})},
      {"shg 7x9",
       topo::make_sparse_hamming(7, 9, {2, 3, 4, 6, 8}, {2, 3, 5, 6})},
  };
  long long collisions = 0;
  for (const auto& [name, topo] : fabrics) {
    const GlobalRoutingResult global = global_route(topo);
    for (const double aspect : {0.5, 1.0, 2.0}) {
      // 10 um cells as the cost model sizes them, and 2.5 mm cells, coarse
      // enough that one link's two port jogs share a cell line.
      for (const double cell : {0.01, 2.5}) {
        const Floorplan plan = plan_for(topo, global, aspect, cell);
        const DetailedRoutingResult detailed =
            detailed_route(topo, plan, global);
        const CellTally oracle = brute_force_cells(detailed, plan);
        const std::string where = name + " aspect " + std::to_string(aspect) +
                                  " cell " + std::to_string(cell);
        EXPECT_EQ(detailed.h_cells, oracle.h) << where;
        EXPECT_EQ(detailed.v_cells, oracle.v) << where;
        EXPECT_EQ(detailed.collision_cells, oracle.collision) << where;
        collisions += oracle.collision;
      }
    }
  }
  // The sweep must exercise the collision count, not only occupancy.
  EXPECT_GT(collisions, 0);
}

}  // namespace
}  // namespace shg::phys
