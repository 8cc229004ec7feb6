// Tests for the five-step cost model (Section IV-B): invariants, formula
// cross-checks and the qualitative orderings the paper's design principles
// predict.
#include <gtest/gtest.h>

#include "shg/customize/search.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/phys/incremental_route.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::model {
namespace {

using tech::ArchParams;
using tech::KncScenario;
using tech::knc_scenario;

TEST(CostModel, RejectsMismatchedGrid) {
  const ArchParams arch = knc_scenario(KncScenario::kA);  // 8x8
  EXPECT_THROW(evaluate_cost(arch, topo::make_mesh(4, 4)), Error);
}

TEST(CostModel, BasicInvariants) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  EXPECT_GT(report.router_area_ge, 0.0);
  EXPECT_NEAR(report.tile_area_ge,
              arch.endpoint_area_ge + report.router_area_ge, 1e-6);
  EXPECT_GT(report.tile_w_mm, 0.0);
  EXPECT_GT(report.tile_h_mm, 0.0);
  EXPECT_NEAR(report.noc_area_mm2,
              report.total_area_mm2 - report.base_area_mm2, 1e-9);
  EXPECT_GT(report.area_overhead, 0.0);
  EXPECT_LT(report.area_overhead, 1.0);
  EXPECT_NEAR(report.noc_power_w,
              report.total_power_w - report.base_power_w, 1e-9);
  EXPECT_NEAR(report.noc_power_w,
              report.router_power_w + report.wire_power_w, 1e-9);
  EXPECT_EQ(report.links.size(),
            static_cast<std::size_t>(topo::make_mesh(8, 8).graph().num_edges()));
}

TEST(CostModel, BaseAreaIndependentOfTopology) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport mesh = evaluate_cost(arch, topo::make_mesh(8, 8));
  const CostReport fb =
      evaluate_cost(arch, topo::make_flattened_butterfly(8, 8));
  EXPECT_NEAR(mesh.base_area_mm2, fb.base_area_mm2, 1e-9);
  EXPECT_NEAR(mesh.base_area_mm2,
              arch.tech.ge_to_mm2(64 * arch.endpoint_area_ge), 1e-9);
}

TEST(CostModel, TileAspectRatioRespected) {
  ArchParams arch = knc_scenario(KncScenario::kA);
  arch.tile_aspect_ratio = 2.0;  // height : width
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  EXPECT_NEAR(report.tile_h_mm / report.tile_w_mm, 2.0, 1e-9);
}

TEST(CostModel, MinimumLinkLatencyIsOneCycle) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  for (const LinkCost& link : report.links) {
    EXPECT_GE(link.latency_cycles, 1);
    EXPECT_GE(static_cast<double>(link.latency_cycles),
              link.latency_cycles_exact - 1e-9);
  }
}

TEST(CostModel, MeshLinkLatencyMatchesTilePitch) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_mesh(8, 8));
  // A 35 MGE tile is ~2.68 mm wide; a neighbor link spans one tile pitch,
  // well within one 1.2 GHz cycle at 150 ps/mm.
  for (const LinkCost& link : report.links) {
    EXPECT_NEAR(link.length_mm, report.tile_w_mm, 0.2);
    EXPECT_EQ(link.latency_cycles, 1);
  }
}

TEST(CostModel, LongLinksAreSlower) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const auto topo = topo::make_flattened_butterfly(8, 8);
  const CostReport report = evaluate_cost(arch, topo);
  double max_latency = 0.0;
  for (const LinkCost& link : report.links) {
    max_latency = std::max(max_latency, link.latency_cycles_exact);
  }
  // A 7-tile link (~19 mm) takes multiple cycles at 1.2 GHz / 150 ps/mm.
  EXPECT_GT(max_latency, 2.0);
}

TEST(CostModel, DesignPrincipleCostOrdering) {
  // Principle #1/#2: higher radix and longer links => more area and power.
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport ring = evaluate_cost(arch, topo::make_ring(8, 8));
  const CostReport mesh = evaluate_cost(arch, topo::make_mesh(8, 8));
  const CostReport shg =
      evaluate_cost(arch, topo::make_sparse_hamming(8, 8, {4}, {2, 5}));
  const CostReport fb =
      evaluate_cost(arch, topo::make_flattened_butterfly(8, 8));
  EXPECT_LT(ring.area_overhead, mesh.area_overhead + 1e-12);
  EXPECT_LT(mesh.area_overhead, shg.area_overhead);
  EXPECT_LT(shg.area_overhead, fb.area_overhead);
  EXPECT_LT(mesh.noc_power_w, fb.noc_power_w);
}

TEST(CostModel, ShgCostGrowsMonotonicallyWithSkips) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  double prev_overhead = -1.0;
  for (const auto& skips : {std::set<int>{}, {4}, {2, 4}, {2, 4, 6}}) {
    const CostReport report =
        evaluate_cost(arch, topo::make_sparse_hamming(8, 8, skips, skips));
    EXPECT_GT(report.area_overhead, prev_overhead);
    prev_overhead = report.area_overhead;
  }
}

TEST(CostModel, SlimNocPaysForNonUniformDensity) {
  // SlimNoC has a similar bisection-class connectivity to the flattened
  // butterfly's rows but concentrates wires (ULD violation): its area
  // overhead must be substantial, and well above the mesh.
  const ArchParams arch = knc_scenario(KncScenario::kC);  // 8x16
  const CostReport slim = evaluate_cost(arch, topo::make_slim_noc(8, 16));
  const CostReport mesh = evaluate_cost(arch, topo::make_mesh(8, 16));
  EXPECT_GT(slim.area_overhead, 2.0 * mesh.area_overhead);
}

TEST(CostModel, CollisionsAreRare) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report =
      evaluate_cost(arch, topo::make_flattened_butterfly(8, 8));
  EXPECT_LT(static_cast<double>(report.collision_cells),
            0.05 * static_cast<double>(report.h_cells + report.v_cells));
}

TEST(CostModel, GoldenStep5CellCounts) {
  // Step-5 cell counts recorded with the per-cell grid counter that the
  // run sweep replaced: the two 40x40 customize_greedy finals of the
  // dse_greedy benchmark (KNC a/b, 40% area budget) and a 16x16 flattened
  // butterfly. A counter change that moves any count fails here.
  struct Golden {
    KncScenario scenario;
    int rows, cols;
    topo::ShgParams skips;  ///< the greedy search's final skip sets
    long long h_cells, v_cells, collision_cells;
  };
  const Golden finals[] = {
      {KncScenario::kA, 40, 40, {{2, 3, 4, 39}, {2, 3, 39}},
       728907, 724334, 17324},
      {KncScenario::kB, 40, 40, {{2, 3, 4, 5, 39}, {2, 3, 5, 39}},
       1563285, 1759116, 24256},
  };
  for (const Golden& golden : finals) {
    ArchParams arch = knc_scenario(golden.scenario);
    arch.rows = golden.rows;
    arch.cols = golden.cols;
    const customize::SearchResult result =
        customize::customize_greedy(arch, customize::Goal{0.40});
    EXPECT_EQ(result.params, golden.skips);
    const CostReport report = evaluate_cost(
        arch, topo::make_sparse_hamming(golden.rows, golden.cols,
                                        golden.skips.row_skips,
                                        golden.skips.col_skips));
    EXPECT_EQ(report.h_cells, golden.h_cells);
    EXPECT_EQ(report.v_cells, golden.v_cells);
    EXPECT_EQ(report.collision_cells, golden.collision_cells);
  }

  ArchParams arch = knc_scenario(KncScenario::kA);
  arch.rows = arch.cols = 16;
  const CostReport fb =
      evaluate_cost(arch, topo::make_flattened_butterfly(16, 16));
  EXPECT_EQ(fb.h_cells, 1244920);
  EXPECT_EQ(fb.v_cells, 1469904);
  EXPECT_EQ(fb.collision_cells, 20612);
}

TEST(CostModel, LinkLatenciesVectorMatches) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const CostReport report = evaluate_cost(arch, topo::make_torus(8, 8));
  const auto latencies = report.link_latencies();
  ASSERT_EQ(latencies.size(), report.links.size());
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    EXPECT_EQ(latencies[i], report.links[i].latency_cycles);
  }
}

TEST(ScreeningCost, LoadsOverloadMatchesTopologyOverload) {
  // The radix + precomputed-loads entry must reproduce the topology entry
  // bit for bit — it runs the same step 1/3/4 arithmetic, fed by loads the
  // incremental router guarantees are bit-identical to global_route_loads.
  // kA is the 8x8 grid; kC (8x16 = 128 tiles = 2 * 8^2) admits a SlimNoC,
  // whose diagonal links exercise both load profiles at once.
  struct Case {
    tech::ArchParams arch;
    topo::Topology topo;
  };
  const Case cases[] = {
      {tech::knc_scenario(tech::KncScenario::kA),
       topo::make_sparse_hamming(8, 8, {3, 6}, {4})},
      {tech::knc_scenario(tech::KncScenario::kA),
       topo::make_sparse_hamming(8, 8, {}, {})},
      {tech::knc_scenario(tech::KncScenario::kC),
       topo::make_slim_noc(8, 16)},
  };
  for (const auto& [arch, topo] : cases) {
    const ScreeningCost from_topo = evaluate_screening_cost(arch, topo);
    const phys::GlobalRoutingResult loads = phys::global_route_loads(topo);
    const ScreeningCost from_loads =
        evaluate_screening_cost(arch, topo.radix(), loads);
    EXPECT_EQ(from_topo.total_area_mm2, from_loads.total_area_mm2);
    EXPECT_EQ(from_topo.base_area_mm2, from_loads.base_area_mm2);
    EXPECT_EQ(from_topo.noc_area_mm2, from_loads.noc_area_mm2);
    EXPECT_EQ(from_topo.area_overhead, from_loads.area_overhead);

    // A tile-geometry cache warmed by one entry must not change the bits
    // of the other.
    TileGeometryCache cache;
    const ScreeningCost cached1 =
        evaluate_screening_cost(arch, topo.radix(), loads, &cache);
    const ScreeningCost cached2 =
        evaluate_screening_cost(arch, topo.radix(), loads, &cache);
    EXPECT_EQ(cached1.area_overhead, from_topo.area_overhead);
    EXPECT_EQ(cached2.area_overhead, from_topo.area_overhead);
  }
}

TEST(ScreeningCost, LoadsOverloadRejectsMismatchedProfiles) {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  const auto topo = topo::make_mesh(arch.rows - 1, arch.cols);
  const phys::GlobalRoutingResult loads = phys::global_route_loads(topo);
  EXPECT_THROW(evaluate_screening_cost(arch, topo.radix(), loads), Error);
}

}  // namespace
}  // namespace shg::model
