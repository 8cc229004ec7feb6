// Incremental-vs-full screening equivalence (customize/incremental.hpp):
// the delta-BFS repair must match fresh sweeps bit-for-bit, screening
// contexts must match screen_candidate up to the benchmark's 40x40 scale,
// and every search surface (greedy, exhaustive, explore) must return what
// a test-local reference that screens each candidate with screen_candidate
// returns.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "shg/common/prng.hpp"
#include "shg/common/strings.hpp"
#include "shg/customize/explore.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {
namespace {

using tech::ArchParams;
using tech::KncScenario;
using tech::knc_scenario;

void expect_same_metrics(const CandidateMetrics& a, const CandidateMetrics& b) {
  // Bit-identical, not approximately equal: the factor lines reproduce the
  // same integer hop totals, and the area side runs the same arithmetic.
  EXPECT_EQ(a.area_overhead, b.area_overhead);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.diameter, b.diameter);
  EXPECT_EQ(a.throughput_bound, b.throughput_bound);
}

void expect_same_search_result(const SearchResult& a, const SearchResult& b) {
  EXPECT_EQ(a.params, b.params);
  expect_same_metrics(a.metrics, b.metrics);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].params, b.history[i].params);
    expect_same_metrics(a.history[i].metrics, b.history[i].metrics);
    EXPECT_EQ(a.history[i].note, b.history[i].note);
  }
  EXPECT_EQ(a.cost.area_overhead, b.cost.area_overhead);
  EXPECT_EQ(a.cost.total_area_mm2, b.cost.total_area_mm2);
}

/// Draws a random SHG trajectory (one extra skip distance per step) and
/// checks the delta-BFS repair against fresh sweeps at every step.
TEST(DeltaBfs, RandomTrajectoriesMatchFreshSweeps) {
  Prng prng(20260729);
  for (int trial = 0; trial < 8; ++trial) {
    const int rows = prng.range(4, 8);
    const int cols = prng.range(4, 8);
    topo::ShgParams params;  // start from the mesh
    for (int step = 0; step < 4; ++step) {
      // Collect the skip distances not yet used, pick one at random.
      std::vector<std::pair<bool, int>> choices;  // (is_col, x)
      for (int x = 2; x < cols; ++x) {
        if (params.row_skips.count(x) == 0) choices.emplace_back(false, x);
      }
      for (int x = 2; x < rows; ++x) {
        if (params.col_skips.count(x) == 0) choices.emplace_back(true, x);
      }
      if (choices.empty()) break;
      const auto [is_col, x] =
          choices[prng.below(choices.size())];
      topo::ShgParams child = params;
      std::vector<graph::Edge> new_edges;
      const topo::Topology parent_topo = topo::make_sparse_hamming(
          rows, cols, params.row_skips, params.col_skips);
      if (is_col) {
        child.col_skips.insert(x);
        for (int c = 0; c < cols; ++c) {
          for (int i = 0; i + x < rows; ++i) {
            new_edges.push_back(
                graph::Edge{i * cols + c, (i + x) * cols + c});
          }
        }
      } else {
        child.row_skips.insert(x);
        for (int r = 0; r < rows; ++r) {
          for (int i = 0; i + x < cols; ++i) {
            new_edges.push_back(graph::Edge{r * cols + i, r * cols + i + x});
          }
        }
      }
      const topo::Topology child_topo = topo::make_sparse_hamming(
          rows, cols, child.row_skips, child.col_skips);

      graph::BfsWorkspace parent_ws;
      graph::BfsWorkspace repair_ws;
      graph::BfsWorkspace fresh_ws;
      for (graph::NodeId s = 0; s < child_topo.graph().num_nodes(); ++s) {
        graph::bfs_distances(parent_topo.graph(), s, parent_ws);
        repair_ws.resize(child_topo.graph().num_nodes());
        std::copy(parent_ws.dist.begin(),
                  parent_ws.dist.begin() + child_topo.graph().num_nodes(),
                  repair_ws.dist.begin());
        graph::update_distances_add_edges(child_topo.graph(), new_edges,
                                          repair_ws);
        graph::bfs_distances(child_topo.graph(), s, fresh_ws);
        for (graph::NodeId v = 0; v < child_topo.graph().num_nodes(); ++v) {
          ASSERT_EQ(repair_ws.dist[static_cast<std::size_t>(v)],
                    fresh_ws.dist[static_cast<std::size_t>(v)])
              << rows << "x" << cols << " src " << s << " node " << v;
        }
      }
      params = child;
    }
  }
}

TEST(ScreeningContext, ChildMatchesScreenCandidate) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const ScreeningContext mesh_ctx(arch, topo::ShgParams{});
  expect_same_metrics(mesh_ctx.metrics(),
                      screen_candidate(arch, topo::ShgParams{}));
  for (const topo::ShgParams& child :
       {topo::ShgParams{{2}, {}}, topo::ShgParams{{5}, {}},
        topo::ShgParams{{}, {3}}, topo::ShgParams{{3, 4}, {2, 6}}}) {
    expect_same_metrics(mesh_ctx.screen_child(child),
                        screen_candidate(arch, child));
  }
  // Non-mesh parent, including derive() and rebase() chains.
  const topo::ShgParams parent{{3}, {2}};
  ScreeningContext ctx(arch, parent);
  const topo::ShgParams step1{{3}, {2, 5}};
  const topo::ShgParams step2{{3, 6}, {2, 5}};
  const ScreeningContext derived = ctx.derive(step1);
  expect_same_metrics(derived.metrics(), screen_candidate(arch, step1));
  expect_same_metrics(derived.screen_child(step2),
                      screen_candidate(arch, step2));
  ctx.rebase(step1);
  expect_same_metrics(ctx.metrics(), screen_candidate(arch, step1));
  expect_same_metrics(ctx.screen_child(step2),
                      screen_candidate(arch, step2));
}

TEST(ScreeningContext, RejectsNonSupersetChildren) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const ScreeningContext ctx(arch, topo::ShgParams{{3}, {}});
  // Removing a skip distance deletes links, which the routing suffix
  // replay cannot take back — the context must refuse.
  EXPECT_THROW(ctx.screen_child(topo::ShgParams{}), Error);
  EXPECT_THROW(ctx.screen_child(topo::ShgParams{{4}, {}}), Error);
}

TEST(ScreeningBatch, RandomBatchesMatchFullScreening) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  for (const auto& [seed, size] : {std::pair<std::uint64_t, int>{42, 24},
                                   std::pair<std::uint64_t, int>{7, 16}}) {
    Prng prng(seed);
    std::vector<topo::ShgParams> batch;
    batch.push_back(topo::ShgParams{});  // the mesh
    for (int i = 0; i < size; ++i) {
      topo::ShgParams params;
      for (int x = 2; x < arch.cols; ++x) {
        if (prng.chance(0.3)) params.row_skips.insert(x);
      }
      for (int x = 2; x < arch.rows; ++x) {
        if (prng.chance(0.3)) params.col_skips.insert(x);
      }
      batch.push_back(std::move(params));
    }
    batch.push_back(batch[3]);  // duplicates must screen consistently

    const std::vector<CandidateMetrics> incremental =
        screen_batch_incremental(arch, batch);
    ASSERT_EQ(incremental.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same_metrics(incremental[i], screen_candidate(arch, batch[i]));
    }
    // The oracle wraps exactly this comparison and must agree.
    EXPECT_NO_THROW(verify_incremental_equivalence(arch, batch));
  }
}

TEST(ScreeningContext, ScratchAndRebaseMatchScreenCandidate) {
  // screen_child with reused per-caller scratch (workspace and tile-geometry
  // memo) must match screen_candidate candidate by candidate, the parent
  // itself included.
  const ArchParams arch = knc_scenario(KncScenario::kA);
  const topo::ShgParams parent{{3}, {2}};
  const ScreeningContext ctx(arch, parent);
  expect_same_metrics(ctx.metrics(), screen_candidate(arch, parent));
  ScreeningContext::Workspace ws;
  model::TileGeometryCache tile_cache;
  for (const topo::ShgParams& child :
       {topo::ShgParams{{3, 4}, {2}}, topo::ShgParams{{3}, {2, 6}},
        topo::ShgParams{{3, 5, 7}, {2, 4}}, parent}) {
    expect_same_metrics(ctx.screen_child(child, &tile_cache, &ws),
                        screen_candidate(arch, child));
  }
  EXPECT_THROW(ctx.screen_child(topo::ShgParams{}, &tile_cache, &ws), Error);
  // Rebase keeps the routing context keyed to the new parent, with and
  // without known metrics.
  ScreeningContext rebased(arch, parent);
  rebased.rebase(topo::ShgParams{{3, 4}, {2}});
  expect_same_metrics(rebased.metrics(),
                      screen_candidate(arch, topo::ShgParams{{3, 4}, {2}}));
  expect_same_metrics(
      rebased.screen_child(topo::ShgParams{{3, 4}, {2, 6}}),
      screen_candidate(arch, topo::ShgParams{{3, 4}, {2, 6}}));
  const CandidateMetrics known =
      screen_candidate(arch, topo::ShgParams{{3, 4, 6}, {2}});
  rebased.rebase(topo::ShgParams{{3, 4, 6}, {2}}, &known);
  expect_same_metrics(rebased.metrics(), known);
  expect_same_metrics(
      rebased.screen_child(topo::ShgParams{{3, 4, 6}, {2, 5}}),
      screen_candidate(arch, topo::ShgParams{{3, 4, 6}, {2, 5}}));
}

TEST(ScreeningContext, FortyByFortyMatchesScreenCandidate) {
  // The benchmark's scale: 1600 tiles, where screening takes its hop
  // metrics from the factor lines and never sweeps the grid.
  ArchParams arch = knc_scenario(KncScenario::kA);
  arch.rows = 40;
  arch.cols = 40;
  const std::vector<topo::ShgParams> batch = {
      topo::ShgParams{},  // the mesh
      topo::ShgParams{{2}, {}},
      topo::ShgParams{{17}, {}},
      topo::ShgParams{{}, {5}},
      topo::ShgParams{{}, {39}},
      topo::ShgParams{{3, 9, 27}, {2, 14}},
      topo::ShgParams{{5, 11, 23, 31}, {4, 8, 16, 32, 39}}};
  EXPECT_NO_THROW(verify_incremental_equivalence(arch, batch));
  // The greedy search's accept path: a rebase chain from the mesh.
  ScreeningContext ctx(arch, topo::ShgParams{});
  for (const topo::ShgParams& step :
       {topo::ShgParams{{8}, {}}, topo::ShgParams{{8}, {13}},
        topo::ShgParams{{8, 21}, {13}}}) {
    ctx.rebase(step);
    expect_same_metrics(ctx.metrics(), screen_candidate(arch, step));
  }
}

TEST(ScreeningContext, NonSquareGridsMatchScreenCandidate) {
  // R != C: the factor lines have different lengths, so a hop total that
  // mixed up the row and column factors would differ here (on a square
  // grid it cannot).
  for (const auto [rows, cols] : {std::pair{8, 16}, std::pair{16, 8}}) {
    ArchParams arch = knc_scenario(KncScenario::kA);
    arch.rows = rows;
    arch.cols = cols;
    const std::vector<topo::ShgParams> batch = {
        topo::ShgParams{},
        topo::ShgParams{{3}, {}},
        topo::ShgParams{{}, {2}},
        topo::ShgParams{{2, 5}, {3}},
        topo::ShgParams{{4, 6}, {2, 5}}};
    EXPECT_NO_THROW(verify_incremental_equivalence(arch, batch));
    ScreeningContext ctx(arch, topo::ShgParams{{3}, {}});
    expect_same_metrics(ctx.screen_child(topo::ShgParams{{3}, {2, 5}}),
                        screen_candidate(arch, topo::ShgParams{{3}, {2, 5}}));
    ctx.rebase(topo::ShgParams{{3, 6}, {}});
    expect_same_metrics(ctx.metrics(),
                        screen_candidate(arch, topo::ShgParams{{3, 6}, {}}));
  }
}

/// The greedy search written out with screen_candidate as its only
/// screener: the oracle customize_greedy must reproduce bit for bit.
SearchResult reference_greedy(const ArchParams& arch, const Goal& goal) {
  SearchResult result;
  result.metrics = screen_candidate(arch, result.params);
  result.history.push_back(
      SearchStep{result.params, result.metrics,
                 "start: mesh (" + fmt_skip_sets(result.params) + ")"});
  while (true) {
    std::vector<topo::ShgParams> batch;
    for (int x = 2; x < arch.cols; ++x) {
      if (result.params.row_skips.count(x) != 0) continue;
      topo::ShgParams candidate = result.params;
      candidate.row_skips.insert(x);
      batch.push_back(std::move(candidate));
    }
    for (int x = 2; x < arch.rows; ++x) {
      if (result.params.col_skips.count(x) != 0) continue;
      topo::ShgParams candidate = result.params;
      candidate.col_skips.insert(x);
      batch.push_back(std::move(candidate));
    }
    std::vector<CandidateMetrics> screened;
    for (const topo::ShgParams& candidate : batch) {
      screened.push_back(screen_candidate(arch, candidate));
    }
    const std::size_t pick =
        select_greedy_candidate(result.metrics, screened, goal);
    if (pick == kNoCandidate) break;
    result.params = batch[pick];
    result.metrics = screened[pick];
    result.history.push_back(SearchStep{
        result.params, result.metrics,
        "accepted " + fmt_skip_sets(result.params) + " (overhead " +
            fmt_double(100.0 * result.metrics.area_overhead, 1) +
            "%, throughput bound " +
            fmt_double(result.metrics.throughput_bound, 3) + ")"});
  }
  result.cost = model::evaluate_cost(
      arch, topo::make_sparse_hamming(arch.rows, arch.cols,
                                      result.params.row_skips,
                                      result.params.col_skips));
  return result;
}

TEST(Greedy, MatchesPerCandidateReference) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  for (double budget : {0.15, 0.40}) {
    const SearchResult reference = reference_greedy(arch, Goal{budget});
    // The budgets must exercise real trajectories, not just the mesh.
    EXPECT_GE(reference.history.size(), 2u) << "budget " << budget;
    expect_same_search_result(customize_greedy(arch, Goal{budget}),
                              reference);
  }
}

/// Every subset of the candidate skips screened with screen_candidate; the
/// winner has the highest throughput bound, then the lowest avg hops, then
/// the earliest mask (row mask outer, column mask inner).
SearchResult reference_exhaustive(const ArchParams& arch, const Goal& goal,
                                  const std::vector<int>& rows,
                                  const std::vector<int>& cols) {
  SearchResult best;
  bool have_best = false;
  for (std::size_t rm = 0; rm < (std::size_t{1} << rows.size()); ++rm) {
    for (std::size_t cm = 0; cm < (std::size_t{1} << cols.size()); ++cm) {
      topo::ShgParams params;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if ((rm >> i) & 1) params.row_skips.insert(rows[i]);
      }
      for (std::size_t i = 0; i < cols.size(); ++i) {
        if ((cm >> i) & 1) params.col_skips.insert(cols[i]);
      }
      const CandidateMetrics metrics = screen_candidate(arch, params);
      if (metrics.area_overhead > goal.max_area_overhead) continue;
      const bool better =
          !have_best ||
          metrics.throughput_bound > best.metrics.throughput_bound ||
          (metrics.throughput_bound == best.metrics.throughput_bound &&
           metrics.avg_hops < best.metrics.avg_hops);
      if (better) {
        have_best = true;
        best.params = params;
        best.metrics = metrics;
      }
    }
  }
  best.cost = model::evaluate_cost(
      arch, topo::make_sparse_hamming(arch.rows, arch.cols,
                                      best.params.row_skips,
                                      best.params.col_skips));
  best.history.push_back(SearchStep{best.params, best.metrics, "exhaustive"});
  return best;
}

TEST(Exhaustive, MatchesPerCandidateReference) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  expect_same_search_result(
      customize_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}),
      reference_exhaustive(arch, Goal{0.30}, {2, 3, 4}, {2, 3}));
  // Unsorted candidate lists exercise the canonical element ordering.
  expect_same_search_result(
      customize_exhaustive(arch, Goal{0.35}, {5, 2}, {4, 3}),
      reference_exhaustive(arch, Goal{0.35}, {5, 2}, {4, 3}));
}

TEST(Explore, MatchesPerCandidateReference) {
  const ArchParams arch = knc_scenario(KncScenario::kA);
  ExploreOptions options;
  options.max_area_overhead = 0.15;  // tight enough that the filter bites
  // 8x8 grid: SR/SC subsets of {2..7} with at most two elements (22 each)
  // for SHG, at most one skip per dimension (7 each) for Ruche.
  const std::pair<decltype(&explore_shg), std::size_t> families[] = {
      {&explore_shg, 22u * 22u}, {&explore_ruche, 7u * 7u}};
  for (const auto& [explore, enumerated] : families) {
    ExploreOptions unfiltered = options;
    unfiltered.max_area_overhead = 1e9;
    const auto all = explore(arch, unfiltered);
    ASSERT_EQ(all.size(), enumerated);
    const auto points = explore(arch, options);
    // The filter keeps exactly the enumerated points within the budget, in
    // enumeration order.
    std::vector<ExploredPoint> expected;
    for (const ExploredPoint& p : all) {
      expect_same_metrics(p.metrics, screen_candidate(arch, p.params));
      if (p.metrics.area_overhead <= options.max_area_overhead) {
        expected.push_back(p);
      }
    }
    ASSERT_LT(expected.size(), all.size());
    ASSERT_EQ(points.size(), expected.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_EQ(points[i].params, expected[i].params);
      EXPECT_EQ(points[i].label, expected[i].label);
      expect_same_metrics(points[i].metrics, expected[i].metrics);
    }
  }
}

}  // namespace
}  // namespace shg::customize
