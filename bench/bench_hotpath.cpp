// Hot-path benchmark: tracks the performance layer introduced with the
// route-table / fused-BFS / parallel-DSE overhaul, and guards the perf
// trajectory from that PR onward.
//
// Measurements on a 10x10 KNC-class fabric:
//  1. route_lookup — precomputed RouteTable::lookup vs a live virtual
//     RoutingFunction::route() call writing into one reused scratch span
//     (allocation-free, as the simulator's live-routing path calls it);
//  2. fused_bfs    — fused distance_summary (one all-pairs sweep, reused
//     workspace) vs the pre-PR metric path (average_hops + diameter, each
//     its own allocating sweep plus a connectivity probe);
//  3. dse_screen   — greedy-DSE candidate screening: the pre-PR path (full
//     five-step cost model + two-sweep metrics) vs customize::screen_candidate
//     (area-only cost fast path + fused sweep). The original acceptance bar
//     was >= 5x; the legacy side has since gotten faster for free (its
//     five-step model includes the optimized detailed router), so the ratio
//     understates the original win and the section is tracked, not gated;
//  4. sim_cycle    — full simulation cycle loop routing live (no table) vs
//     from a shared, verified route table, asserting bit-identical
//     SimResults;
//  5. dse_greedy_incremental — the whole greedy customization: a bench-local
//     copy of the greedy loop re-screening every neighbour with
//     screen_candidate (the per-candidate path the library no longer has)
//     vs customize_greedy, asserting bit-identical winners, metrics and
//     history and running the incremental-vs-full screening oracle.
//     Acceptance bar: >= 1.5x;
//  6. route_table_dedup — bytes of the deduplicated route-table CSR vs the
//     one-range-per-row layout it replaced (sim equivalence is covered by
//     the sim_cycle gate, which runs with the deduplicated table);
//  7. dse_greedy_routing_incremental — the same bench-local greedy loop
//     with a row-repair screener (delta-BFS repair of the parent's rows,
//     per-candidate from-scratch channel routing on the materialized
//     child: the screening stack before incremental routing) vs
//     customize_greedy (phys::RoutingContext suffix replay + topology-free
//     child pricing). Runs the channel-router differential oracle
//     (repaired loads bit-identical to global_route_loads over random
//     skip-insertion trajectories), the screening equivalence oracle, and
//     asserts bit-identical search winners/history between the two.
//     Acceptance bar: >= 2x.
//  8. dse_session_warm — the full greedy customization against a fresh
//     persistent session (cold: every candidate is a cache miss and gets
//     screened + stored) vs re-invoking it against the now-populated
//     session (warm: every candidate hits the cache, no BFS sweep and no
//     channel routing runs, and the final cost report comes from the
//     artifact tier). Asserts the cold-with-session, warm and
//     session-free searches are bit-identical (winners, metric bits,
//     history notes, final report areas) and that the warm run actually
//     hit the cache. Acceptance bar: >= 3x.
//
// Output: a human-readable table on stdout and machine-readable JSON
// (default BENCH_hotpath.json; see --out). `--smoke` shrinks repetition
// counts for CI smoke runs — speedup ratios stay meaningful, absolute
// numbers get noisier.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "gates.hpp"
#include "shg/common/parallel.hpp"
#include "shg/common/prng.hpp"
#include "shg/common/strings.hpp"
#include "shg/customize/incremental.hpp"
#include "shg/customize/search.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/perf.hpp"
#include "shg/graph/shortest_paths.hpp"
#include "shg/model/cost_model.hpp"
#include "shg/phys/incremental_route.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/tech/presets.hpp"
#include "shg/topo/generators.hpp"

namespace {

using namespace shg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Sink defeating dead-code elimination without a benchmark-library
// dependency.
volatile long long g_sink = 0;

// ---------------------------------------------------------------------------
// Pre-PR reference implementations (kept verbatim so the speedup is measured
// against the real seed code path, not a strawman).
// ---------------------------------------------------------------------------

std::vector<int> legacy_bfs_distances(const graph::Graph& g,
                                      graph::NodeId src) {
  std::vector<int> dist(static_cast<std::size_t>(g.num_nodes()),
                        graph::kUnreachable);
  std::queue<graph::NodeId> queue;
  dist[static_cast<std::size_t>(src)] = 0;
  queue.push(src);
  while (!queue.empty()) {
    const graph::NodeId u = queue.front();
    queue.pop();
    for (const graph::Neighbor& n : g.neighbors(u)) {
      auto& d = dist[static_cast<std::size_t>(n.node)];
      if (d == graph::kUnreachable) {
        d = dist[static_cast<std::size_t>(u)] + 1;
        queue.push(n.node);
      }
    }
  }
  return dist;
}

bool legacy_is_connected(const graph::Graph& g) {
  if (g.num_nodes() <= 1) return true;
  const auto dist = legacy_bfs_distances(g, 0);
  for (int d : dist) {
    if (d == graph::kUnreachable) return false;
  }
  return true;
}

int legacy_diameter(const graph::Graph& g) {
  if (!legacy_is_connected(g)) return -1;
  int best = 0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = legacy_bfs_distances(g, u);
    for (int d : dist) best = std::max(best, d);
  }
  return best;
}

double legacy_average_hops(const graph::Graph& g) {
  if (!legacy_is_connected(g)) return -1.0;
  double total = 0.0;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto dist = legacy_bfs_distances(g, u);
    for (int d : dist) total += d;
  }
  return total /
         (static_cast<double>(g.num_nodes()) * (g.num_nodes() - 1));
}

/// The seed's screen_candidate: full five-step cost model plus two separate
/// all-pairs metric sweeps.
customize::CandidateMetrics legacy_screen_candidate(
    const tech::ArchParams& arch, const topo::ShgParams& params) {
  const topo::Topology topo = topo::make_sparse_hamming(
      arch.rows, arch.cols, params.row_skips, params.col_skips);
  const model::CostReport cost = model::evaluate_cost(arch, topo);
  customize::CandidateMetrics metrics;
  metrics.area_overhead = cost.area_overhead;
  metrics.avg_hops = legacy_average_hops(topo.graph());
  metrics.diameter = legacy_diameter(topo.graph());
  const double directed_links = 2.0 * topo.graph().num_edges();
  metrics.throughput_bound =
      directed_links /
      (static_cast<double>(topo.num_tiles()) * metrics.avg_hops);
  return metrics;
}

/// Screens one greedy neighbourhood: the metrics of every entry of `batch`,
/// each the accepted parameterization `parent` plus one skip distance (or,
/// for the start, `parent` itself).
using NeighbourhoodScreener = std::function<std::vector<
    customize::CandidateMetrics>(const topo::ShgParams& parent,
                                 const std::vector<topo::ShgParams>& batch)>;

/// customize_greedy's loop before the search had one screening path, with
/// the screening of each neighbourhood supplied by the caller (no session).
/// The mesh start is screened as a one-entry neighbourhood of itself.
/// Selection, history notes and the final report are the library's, so a
/// correct screener reproduces customize_greedy bit for bit.
customize::SearchResult reference_greedy(const tech::ArchParams& arch,
                                         const customize::Goal& goal,
                                         const NeighbourhoodScreener& screen) {
  customize::SearchResult result;
  result.metrics = screen(result.params, {result.params}).front();
  result.history.push_back(customize::SearchStep{
      result.params, result.metrics,
      "start: mesh (" + customize::fmt_skip_sets(result.params) + ")"});
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
    const std::vector<customize::CandidateMetrics> screened =
        screen(result.params, batch);
    const std::size_t pick =
        customize::select_greedy_candidate(result.metrics, screened, goal);
    if (pick == customize::kNoCandidate) break;
    result.params = batch[pick];
    result.metrics = screened[pick];
    result.history.push_back(customize::SearchStep{
        result.params, result.metrics,
        "accepted " + customize::fmt_skip_sets(result.params) +
            " (overhead " +
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

/// The per-candidate screener (section 5's baseline): every neighbour is
/// screened from scratch with screen_candidate, in parallel.
std::vector<customize::CandidateMetrics> screen_each_candidate(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  std::vector<customize::CandidateMetrics> metrics(batch.size());
  parallel_for(batch.size(), [&](std::size_t i) {
    metrics[i] = customize::screen_candidate(arch, batch[i]);
  });
  return metrics;
}

/// The delta-BFS screener that preceded channel-routing reuse (section 7's
/// baseline). It caches the accepted parameterization's per-source BFS rows
/// with their histograms and aggregates (the first call sweeps them from
/// scratch); each child, the parent itself included, materializes its
/// topology, repairs a copy of the rows with
/// graph::update_distances_add_edges and is priced by a from-scratch
/// channel route (evaluate_screening_cost on the topology). Accepting a
/// step repairs the cached rows without re-pricing the accepted child.
class RowRepairScreener {
 public:
  explicit RowRepairScreener(const tech::ArchParams& arch) : arch_(&arch) {}

  std::vector<customize::CandidateMetrics> operator()(
      const topo::ShgParams& parent,
      const std::vector<topo::ShgParams>& batch) {
    if (!keyed_) {
      sweep(parent);
    } else if (!(parent == parent_)) {
      Rows rows;
      repair(make_topology(parent), parent, &rows);
      parent_ = parent;
      rows_ = std::move(rows);
    }
    std::vector<customize::CandidateMetrics> metrics(batch.size());
    parallel_for(batch.size(), [&](std::size_t i) {
      const topo::Topology topo = make_topology(batch[i]);
      const Accum acc = repair(topo, batch[i], nullptr);
      metrics[i] = make_metrics(topo, acc);
    });
    return metrics;
  }

 private:
  struct Rows {
    std::vector<int> dist;  ///< dist[src * n + node]
    std::vector<int> hist;  ///< hist[src * n + d]
    std::vector<graph::DistRowStats> stats;
  };
  struct Accum {
    int diameter = 0;
    long long total = 0;
    long long reachable_pairs = 0;
    void add_row(const graph::DistRowStats& row) {
      total += row.sum;
      reachable_pairs += row.reachable;
      if (row.max > diameter) diameter = row.max;
    }
  };

  static std::vector<int> skip_delta(const std::set<int>& parent,
                                     const std::set<int>& child) {
    std::vector<int> delta;
    for (int x : child) {
      if (parent.count(x) == 0) delta.push_back(x);
    }
    SHG_REQUIRE(delta.size() == child.size() - parent.size(),
                "row-repair screening requires a skip superset");
    return delta;
  }

  topo::Topology make_topology(const topo::ShgParams& params) const {
    return topo::make_sparse_hamming(arch_->rows, arch_->cols,
                                     params.row_skips, params.col_skips);
  }

  customize::CandidateMetrics make_metrics(const topo::Topology& topo,
                                           const Accum& acc) const {
    const model::ScreeningCost cost =
        model::evaluate_screening_cost(*arch_, topo, nullptr);
    const long long n = topo.graph().num_nodes();
    SHG_REQUIRE(acc.reachable_pairs == n * n,
                "screening requires a connected topology");
    customize::CandidateMetrics metrics;
    metrics.area_overhead = cost.area_overhead;
    const long long pairs = acc.reachable_pairs - n;
    if (pairs > 0) {
      metrics.avg_hops =
          static_cast<double>(acc.total) / static_cast<double>(pairs);
    }
    metrics.diameter = static_cast<double>(acc.diameter);
    const double directed_links = 2.0 * topo.graph().num_edges();
    metrics.throughput_bound =
        directed_links /
        (static_cast<double>(topo.num_tiles()) * metrics.avg_hops);
    return metrics;
  }

  /// Full sweep of the first parent (the context construction).
  void sweep(const topo::ShgParams& params) {
    const topo::Topology topo = make_topology(params);
    const int n = topo.graph().num_nodes();
    const std::size_t cells = static_cast<std::size_t>(n) * n;
    rows_.dist.resize(cells);
    rows_.hist.assign(cells, 0);
    rows_.stats.assign(static_cast<std::size_t>(n), graph::DistRowStats{});
    graph::BfsWorkspace ws;
    for (graph::NodeId s = 0; s < n; ++s) {
      graph::bfs_distances(topo.graph(), s, ws);
      const std::size_t base = static_cast<std::size_t>(s) * n;
      graph::DistRowStats& row = rows_.stats[static_cast<std::size_t>(s)];
      for (int v = 0; v < n; ++v) {
        const int d = ws.dist[static_cast<std::size_t>(v)];
        rows_.dist[base + static_cast<std::size_t>(v)] = d;
        if (d == graph::kUnreachable) continue;
        row.sum += d;
        ++row.reachable;
        if (d > row.max) row.max = d;
        ++rows_.hist[base + static_cast<std::size_t>(d)];
      }
    }
    parent_ = params;
    keyed_ = true;
  }

  /// Repairs a copy of the cached rows for `child` (a skip superset of
  /// parent_, materialized as `topo`) and folds their aggregates;
  /// `capture`, when given, receives the repaired rows.
  Accum repair(const topo::Topology& topo, const topo::ShgParams& child,
               Rows* capture) const {
    const std::vector<int> new_rows =
        skip_delta(parent_.row_skips, child.row_skips);
    const std::vector<int> new_cols =
        skip_delta(parent_.col_skips, child.col_skips);
    std::vector<graph::Edge> new_edges;
    topo::for_each_skip_link(
        arch_->rows, arch_->cols, new_rows, new_cols,
        [&](topo::TileCoord a, topo::TileCoord b) {
          new_edges.push_back(graph::Edge{topo.node(a.row, a.col),
                                          topo.node(b.row, b.col)});
        });
    const graph::Graph& g = topo.graph();
    const int n = g.num_nodes();
    Accum acc;
    graph::BfsWorkspace ws;
    ws.resize(n);
    std::vector<int> hist_row(static_cast<std::size_t>(n));
    if (capture != nullptr) {
      capture->dist.resize(static_cast<std::size_t>(n) * n);
      capture->hist.resize(static_cast<std::size_t>(n) * n);
      capture->stats.resize(static_cast<std::size_t>(n));
    }
    for (graph::NodeId s = 0; s < n; ++s) {
      const std::size_t base = static_cast<std::size_t>(s) * n;
      std::copy(rows_.dist.begin() + base, rows_.dist.begin() + base + n,
                ws.dist.begin());
      std::copy(rows_.hist.begin() + base, rows_.hist.begin() + base + n,
                hist_row.begin());
      graph::DistRowStats row = rows_.stats[static_cast<std::size_t>(s)];
      graph::update_distances_add_edges(g, new_edges, ws, hist_row.data(),
                                        row);
      acc.add_row(row);
      if (capture != nullptr) {
        std::copy(ws.dist.begin(), ws.dist.begin() + n,
                  capture->dist.begin() + base);
        std::copy(hist_row.begin(), hist_row.end(),
                  capture->hist.begin() + base);
        capture->stats[static_cast<std::size_t>(s)] = row;
      }
    }
    return acc;
  }

  const tech::ArchParams* arch_;
  bool keyed_ = false;
  topo::ShgParams parent_;
  Rows rows_;
};

// ---------------------------------------------------------------------------
// Benchmark plumbing
// ---------------------------------------------------------------------------

struct BenchResult {
  std::string name;
  double old_seconds = 0.0;
  double new_seconds = 0.0;
  long long ops = 0;  ///< operations per timed side
  std::string note;

  double speedup() const {
    return new_seconds > 0.0 ? old_seconds / new_seconds : 0.0;
  }
};

void print_result(const BenchResult& r) {
  std::printf("%-12s  old %10.4f s  new %10.4f s  speedup %6.2fx  %s\n",
              r.name.c_str(), r.old_seconds, r.new_seconds, r.speedup(),
              r.note.c_str());
}

tech::ArchParams fabric_10x10() {
  tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  arch.name = "knc-like-10x10";
  arch.rows = 10;
  arch.cols = 10;
  return arch;
}

// 1. Route-table lookup vs live routing call.
BenchResult bench_route_lookup(bool smoke) {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const int num_vcs = 8;
  const auto routing = sim::make_default_routing(topo, num_vcs);
  const sim::RouteTable table(topo, *routing, num_vcs);

  // The state sample: every injection state plus every first-network-hop
  // state reachable from it (the two shapes the router actually queries).
  struct State {
    int node, in_port, in_vc, dest;
  };
  std::vector<State> states;
  for (int node = 0; node < topo.num_tiles(); ++node) {
    for (int dest = 0; dest < topo.num_tiles(); ++dest) {
      if (dest == node) continue;
      states.push_back({node, -1, -1, dest});
      const auto cands = routing->route(node, -1, -1, dest);
      const auto& cand = cands.front();
      const int next = topo.graph()
                           .neighbors(node)[static_cast<std::size_t>(
                               cand.out_port)]
                           .node;
      if (next == dest) continue;
      // Arrival port at `next` coming from `node`.
      const auto& nbrs = topo.graph().neighbors(next);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (nbrs[i].node == node) {
          states.push_back({next, static_cast<int>(i), cand.vc_begin, dest});
          break;
        }
      }
    }
  }

  const int reps = smoke ? 20 : 200;
  BenchResult result;
  result.name = "route_lookup";
  result.ops = static_cast<long long>(states.size()) * reps;
  result.note = std::to_string(states.size()) + " states x " +
                std::to_string(reps) + " reps";

  std::vector<sim::RouteCandidate> scratch(routing->max_candidates());
  auto t0 = Clock::now();
  long long sink = 0;
  for (int r = 0; r < reps; ++r) {
    for (const State& s : states) {
      routing->route(s.node, s.in_port, s.in_vc, s.dest, scratch);
      sink += scratch.front().out_port;
    }
  }
  result.old_seconds = seconds_since(t0);

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const State& s : states) {
      const auto cands = table.lookup(s.node, s.in_port, s.in_vc, s.dest);
      sink += cands.front().out_port;
    }
  }
  result.new_seconds = seconds_since(t0);
  g_sink = g_sink + sink;
  return result;
}

// 2. Fused distance summary vs two legacy sweeps.
BenchResult bench_fused_bfs(bool smoke) {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const graph::Graph& g = topo.graph();
  const int reps = smoke ? 50 : 500;

  BenchResult result;
  result.name = "fused_bfs";
  result.ops = reps;
  result.note = "avg_hops+diameter on " + std::to_string(g.num_nodes()) +
                " nodes";

  auto t0 = Clock::now();
  double acc = 0.0;
  for (int r = 0; r < reps; ++r) {
    acc += legacy_average_hops(g);
    acc += legacy_diameter(g);
  }
  result.old_seconds = seconds_since(t0);

  graph::BfsWorkspace ws;
  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    const graph::DistanceSummary summary = graph::distance_summary(g, ws);
    acc += summary.avg_hops + summary.diameter;
  }
  result.new_seconds = seconds_since(t0);
  g_sink = g_sink + static_cast<long long>(acc);
  return result;
}

// 3. Greedy-DSE candidate screening, old path vs new path.
BenchResult bench_dse_screen(bool smoke) {
  const tech::ArchParams arch = fabric_10x10();
  // The first greedy neighborhood: the mesh plus every single-skip
  // candidate — exactly what customize_greedy screens per iteration.
  std::vector<topo::ShgParams> batch;
  batch.push_back(topo::ShgParams{});
  for (int x = 2; x < arch.cols; ++x) {
    batch.push_back(topo::ShgParams{{x}, {}});
  }
  for (int x = 2; x < arch.rows; ++x) {
    batch.push_back(topo::ShgParams{{}, {x}});
  }
  const int reps = smoke ? 2 : 10;

  BenchResult result;
  result.name = "dse_screen";
  result.ops = static_cast<long long>(batch.size()) * reps;
  result.note = std::to_string(batch.size()) + " candidates x " +
                std::to_string(reps) + " reps";

  auto t0 = Clock::now();
  double acc = 0.0;
  for (int r = 0; r < reps; ++r) {
    for (const auto& params : batch) {
      acc += legacy_screen_candidate(arch, params).throughput_bound;
    }
  }
  result.old_seconds = seconds_since(t0);

  t0 = Clock::now();
  for (int r = 0; r < reps; ++r) {
    for (const auto& params : batch) {
      acc += customize::screen_candidate(arch, params).throughput_bound;
    }
  }
  result.new_seconds = seconds_since(t0);
  g_sink = g_sink + static_cast<long long>(acc * 1000.0);
  return result;
}

// 4. Full simulation cycle loop: live routing vs a shared route table,
// identical results.
BenchResult bench_sim_cycle(bool smoke, bool* results_identical) {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()), 1);
  const auto pattern = sim::make_uniform(topo.num_tiles());

  sim::SimConfig config;
  config.injection_rate = 0.10;
  config.warmup_cycles = smoke ? 200 : 1000;
  config.measure_cycles = smoke ? 600 : 3000;

  BenchResult result;
  result.name = "sim_cycle";
  // Both sides include the allocator fast paths of this PR; the old/new
  // delta isolates the route table. The absolute seconds (and ops =
  // simulated cycles) are what tracks the inner-loop trajectory over PRs.
  result.note = "10x10 SHG, uniform, rate 0.10; delta isolates route table";

  sim::Simulator live(topo, latencies, config, *pattern, 1);  // no table
  auto t0 = Clock::now();
  const sim::SimResult live_result = live.run();
  result.old_seconds = seconds_since(t0);

  // Equivalence-checking mode: the shared table is verified against the
  // live routing before the run.
  const auto routing = sim::make_policy_routing(topo, config);
  const auto table =
      std::make_shared<const sim::RouteTable>(topo, *routing, config.num_vcs);
  table->verify_against(*routing);
  sim::Simulator tabled(topo, latencies, config, *pattern, 1, nullptr, table);
  t0 = Clock::now();
  const sim::SimResult table_result = tabled.run();
  result.new_seconds = seconds_since(t0);
  result.ops = live_result.cycles_run;

  *results_identical = live_result == table_result;
  return result;
}

/// Field-exact comparison of two search outcomes (params, metric bits,
/// every history step including the rendered notes).
bool same_search_result(const customize::SearchResult& a,
                        const customize::SearchResult& b) {
  if (!(a.params == b.params) || a.metrics != b.metrics ||
      a.history.size() != b.history.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    if (!(a.history[i].params == b.history[i].params) ||
        a.history[i].metrics != b.history[i].metrics ||
        a.history[i].note != b.history[i].note) {
      return false;
    }
  }
  return true;
}

// 5. Greedy DSE end to end: the bench-local greedy loop re-screening every
// neighbour with screen_candidate vs customize_greedy, plus the screening
// equivalence oracle on a mixed batch.
BenchResult bench_dse_greedy_incremental(bool* equivalent) {
  const tech::ArchParams arch = fabric_10x10();
  const customize::Goal goal{0.40};
  // This section gates CI on a 1.5x bar and measured 3.7-5.3x over fourteen
  // smoke runs on a shared 4-core box; the ratio uses the min over several
  // timed reps per side — min-of-k rejects co-tenant noise spikes on
  // shared CI runners that a single (or summed) measurement would absorb.
  const int reps = 3;

  // Oracle: the first greedy neighborhood (mesh + every single skip) plus a
  // few multi-skip candidates, screened incrementally and fully —
  // verify_incremental_equivalence throws on any non-bit-identical metric.
  std::vector<topo::ShgParams> oracle_batch;
  oracle_batch.push_back(topo::ShgParams{});
  for (int x = 2; x < arch.cols; ++x) {
    oracle_batch.push_back(topo::ShgParams{{x}, {}});
  }
  for (int x = 2; x < arch.rows; ++x) {
    oracle_batch.push_back(topo::ShgParams{{}, {x}});
  }
  oracle_batch.push_back(topo::ShgParams{{3, 6}, {}});
  oracle_batch.push_back(topo::ShgParams{{3, 6}, {4}});
  oracle_batch.push_back(topo::ShgParams{{2}, {2, 5}});
  bool oracle_ok = true;
  try {
    customize::verify_incremental_equivalence(arch, oracle_batch);
  } catch (const Error& e) {
    oracle_ok = false;
    std::fprintf(stderr, "screening oracle: %s\n", e.what());
  }

  BenchResult result;
  result.name = "dse_greedy_incremental";
  result.ops = 1;  // seconds are min-of-reps for ONE full search
  result.note = "full customize_greedy, 10x10, budget 40%, min of " +
                std::to_string(reps) + "; oracle " +
                std::string(oracle_ok ? "ok" : "MISMATCH");

  const NeighbourhoodScreener per_candidate =
      [&](const topo::ShgParams&, const std::vector<topo::ShgParams>& batch) {
        return screen_each_candidate(arch, batch);
      };
  customize::SearchResult full_result =
      reference_greedy(arch, goal, per_candidate);  // warm-up + reference
  result.old_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    full_result = reference_greedy(arch, goal, per_candidate);
    result.old_seconds = std::min(result.old_seconds, seconds_since(t0));
  }

  customize::SearchResult inc_result;
  result.new_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    inc_result = customize::customize_greedy(arch, goal);
    result.new_seconds = std::min(result.new_seconds, seconds_since(t0));
  }

  *equivalent = oracle_ok && same_search_result(full_result, inc_result);
  return result;
}

// 7. Greedy DSE with the bench-local delta-BFS screener (row repair,
// from-scratch channel routing per candidate) vs customize_greedy's one
// screening path (routing context suffix replay + topology-free child
// pricing).
BenchResult bench_dse_greedy_routing_incremental(bool* equivalent) {
  const tech::ArchParams arch = fabric_10x10();
  const customize::Goal goal{0.40};
  // Min-of-5: this section gates CI at 2x and measured 2.4-3.2x over
  // fourteen smoke runs on a shared 4-core box, above the bar on all of
  // them. Both sides are short (milliseconds), so extra reps cost nothing
  // and reject co-tenant noise spikes a min-of-3 occasionally lets through.
  const int reps = 5;

  // Channel-router differential oracle: over random SHG skip-insertion
  // trajectories, the context's repaired loads must be bit-identical to
  // global_route_loads on the materialized child.
  bool oracle_ok = true;
  Prng rng(0x70410u);
  for (int trial = 0; trial < 8 && oracle_ok; ++trial) {
    std::set<int> parent_rows, parent_cols;
    std::vector<int> new_rows, new_cols;
    for (int x = 2; x < 10; ++x) {
      switch (rng() % 4) {
        case 0: parent_rows.insert(x); break;
        case 1: new_rows.push_back(x); break;
        default: break;
      }
      switch (rng() % 4) {
        case 0: parent_cols.insert(x); break;
        case 1: new_cols.push_back(x); break;
        default: break;
      }
    }
    const topo::Topology parent =
        topo::make_sparse_hamming(10, 10, parent_rows, parent_cols);
    const phys::RoutingContext ctx(parent);
    std::set<int> child_rows = parent_rows;
    std::set<int> child_cols = parent_cols;
    child_rows.insert(new_rows.begin(), new_rows.end());
    child_cols.insert(new_cols.begin(), new_cols.end());
    const topo::Topology child =
        topo::make_sparse_hamming(10, 10, child_rows, child_cols);
    const phys::GlobalRoutingResult fresh = phys::global_route_loads(child);
    phys::GlobalRoutingResult repaired;
    ctx.route_child_loads(new_rows, new_cols, &repaired);
    if (repaired.h_loads != fresh.h_loads ||
        repaired.v_loads != fresh.v_loads) {
      oracle_ok = false;
      std::fprintf(stderr, "routing oracle: loads diverged on trial %d\n",
                   trial);
    }
  }

  // Screening equivalence oracle.
  std::vector<topo::ShgParams> oracle_batch;
  oracle_batch.push_back(topo::ShgParams{});
  for (int x = 2; x < arch.cols; ++x) {
    oracle_batch.push_back(topo::ShgParams{{x}, {}});
  }
  oracle_batch.push_back(topo::ShgParams{{3, 6}, {4}});
  oracle_batch.push_back(topo::ShgParams{{2}, {2, 5}});
  try {
    customize::verify_incremental_equivalence(arch, oracle_batch);
  } catch (const Error& e) {
    oracle_ok = false;
    std::fprintf(stderr, "screening oracle: %s\n", e.what());
  }

  BenchResult result;
  result.name = "dse_greedy_routing_incremental";
  result.ops = 1;  // seconds are min-of-reps for ONE full search
  result.note = "greedy 10x10, row-repair baseline vs customize_greedy, "
                "min of " +
                std::to_string(reps) + "; oracle " +
                std::string(oracle_ok ? "ok" : "MISMATCH");

  // A fresh screener per run: its row cache is keyed to one trajectory.
  customize::SearchResult baseline_result =
      reference_greedy(arch, goal, RowRepairScreener(arch));  // warm-up
  result.old_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    baseline_result = reference_greedy(arch, goal, RowRepairScreener(arch));
    result.old_seconds = std::min(result.old_seconds, seconds_since(t0));
  }

  customize::SearchResult routing_result;
  result.new_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    routing_result = customize::customize_greedy(arch, goal);
    result.new_seconds = std::min(result.new_seconds, seconds_since(t0));
  }

  *equivalent = oracle_ok && same_search_result(baseline_result,
                                                routing_result);
  return result;
}

// 8. Persistent-session warm re-invocation: the full greedy search against
// a fresh (cold, populating) session vs against the already-populated one.
BenchResult bench_dse_session_warm(bool* equivalent) {
  const tech::ArchParams arch = fabric_10x10();
  const customize::Goal goal{0.40};
  // Min-of-5 like the other gated greedy sections: both sides are short
  // and the 3x bar must not be lost to co-tenant noise on CI runners.
  const int reps = 5;

  // Session-free reference: the warm result must be bit-identical not just
  // to the populating run but to a search that never saw a session.
  const customize::SearchResult reference =
      customize::customize_greedy(arch, goal, customize::SearchOptions{});

  BenchResult result;
  result.name = "dse_session_warm";
  result.ops = 1;  // seconds are min-of-reps for ONE full search
  result.note = "greedy 10x10, fresh-session cold vs warm re-invocation, "
                "min of " + std::to_string(reps);

  // Cold side: a fresh memory-only session per rep — every candidate
  // misses, is screened and stored (the first invocation a designer pays).
  customize::SearchResult cold_result;
  result.old_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    customize::Session session;
    customize::SearchOptions opts;
    opts.session = &session;
    const auto t0 = Clock::now();
    cold_result = customize::customize_greedy(arch, goal, opts);
    result.old_seconds = std::min(result.old_seconds, seconds_since(t0));
  }

  // Warm side: one session, populated once untimed, then re-invoked — the
  // cross-invocation reuse the session exists for.
  customize::Session session;
  customize::SearchOptions opts;
  opts.session = &session;
  customize::SearchResult warm_result =
      customize::customize_greedy(arch, goal, opts);  // populate
  const std::uint64_t hits_before = session.stats().hits;
  result.new_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    warm_result = customize::customize_greedy(arch, goal, opts);
    result.new_seconds = std::min(result.new_seconds, seconds_since(t0));
  }

  const bool warm_hit_cache = session.stats().hits > hits_before;
  // same_search_result covers params/metrics/history; the final report is
  // served from the artifact tier on warm runs, so pin its area fields
  // against the session-free evaluation too.
  const bool cost_identical =
      warm_result.cost.area_overhead == reference.cost.area_overhead &&
      warm_result.cost.total_area_mm2 == reference.cost.total_area_mm2 &&
      cold_result.cost.area_overhead == reference.cost.area_overhead;
  *equivalent = same_search_result(reference, cold_result) &&
                same_search_result(reference, warm_result) &&
                warm_hit_cache && cost_identical;
  if (!warm_hit_cache) {
    std::fprintf(stderr, "session bench: warm run never hit the cache\n");
  }
  return result;
}

// 6. Route-table dedup: byte footprint of the shared-row CSR vs the
// one-range-per-row layout.
struct DedupStats {
  std::size_t rows = 0;
  std::size_t unique_rows = 0;
  std::size_t bytes_undeduped = 0;
  std::size_t bytes_deduped = 0;

  double ratio() const {
    return bytes_deduped > 0
               ? static_cast<double>(bytes_undeduped) /
                     static_cast<double>(bytes_deduped)
               : 0.0;
  }
};

DedupStats bench_route_table_dedup() {
  const topo::Topology topo =
      topo::make_sparse_hamming(10, 10, {3, 6}, {3, 6});
  const int num_vcs = 8;
  const auto routing = sim::make_default_routing(topo, num_vcs);
  const sim::RouteTable table(topo, *routing, num_vcs);
  DedupStats stats;
  stats.rows = table.num_rows();
  stats.unique_rows = table.num_unique_rows();
  stats.bytes_undeduped = table.undeduped_memory_bytes();
  stats.bytes_deduped = table.memory_bytes();
  return stats;
}

void append_json(std::string& json, const BenchResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "    {\"name\": \"%s\", \"old_seconds\": %.6f, "
                "\"new_seconds\": %.6f, \"speedup\": %.3f, \"ops\": %lld, "
                "\"note\": \"%s\"}",
                r.name.c_str(), r.old_seconds, r.new_seconds, r.speedup(),
                r.ops, r.note.c_str());
  if (!json.empty()) json += ",\n";
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_hotpath [--smoke] [--out file.json]\n");
      return 2;
    }
  }

  std::printf("=== bench_hotpath (%s mode) ===\n", smoke ? "smoke" : "full");

  bool results_identical = false;
  bool incremental_identical = false;
  bool routing_incremental_identical = false;
  bool session_identical = false;
  std::vector<BenchResult> results;
  results.push_back(bench_route_lookup(smoke));
  print_result(results.back());
  results.push_back(bench_fused_bfs(smoke));
  print_result(results.back());
  results.push_back(bench_dse_screen(smoke));
  print_result(results.back());
  results.push_back(bench_sim_cycle(smoke, &results_identical));
  print_result(results.back());
  results.push_back(bench_dse_greedy_incremental(&incremental_identical));
  print_result(results.back());
  results.push_back(
      bench_dse_greedy_routing_incremental(&routing_incremental_identical));
  print_result(results.back());
  results.push_back(bench_dse_session_warm(&session_identical));
  print_result(results.back());
  const DedupStats dedup = bench_route_table_dedup();

  std::printf("sim results identical (shared table vs live): %s\n",
              results_identical ? "yes" : "NO — BUG");
  std::printf(
      "incremental DSE identical (per-candidate reference + oracle): %s\n",
      incremental_identical ? "yes" : "NO — BUG");
  std::printf(
      "incremental routing identical (loads + search + oracle): %s\n",
      routing_incremental_identical ? "yes" : "NO — BUG");
  std::printf(
      "session warm re-invocation identical (history + final report): %s\n",
      session_identical ? "yes" : "NO — BUG");
  std::printf(
      "route_table_dedup  rows %zu -> unique %zu, bytes %zu -> %zu "
      "(%.2fx smaller)\n",
      dedup.rows, dedup.unique_rows, dedup.bytes_undeduped,
      dedup.bytes_deduped, dedup.ratio());

  double dse_speedup = 0.0;
  double greedy_speedup = 0.0;
  double routing_speedup = 0.0;
  double session_speedup = 0.0;
  std::string entries;
  for (const BenchResult& r : results) {
    append_json(entries, r);
    if (r.name == "dse_screen") dse_speedup = r.speedup();
    if (r.name == "dse_greedy_incremental") greedy_speedup = r.speedup();
    if (r.name == "dse_greedy_routing_incremental") {
      routing_speedup = r.speedup();
    }
    if (r.name == "dse_session_warm") session_speedup = r.speedup();
  }
  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"shg.bench_hotpath.v4\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"fabric\": \"knc-like-10x10\",\n"
      << "  \"sim_results_identical\": "
      << (results_identical ? "true" : "false") << ",\n"
      << "  \"dse_screen_speedup\": " << dse_speedup << ",\n"
      << "  \"dse_greedy_incremental_speedup\": " << greedy_speedup << ",\n"
      << "  \"incremental_identical\": "
      << (incremental_identical ? "true" : "false") << ",\n"
      << "  \"dse_greedy_routing_incremental_speedup\": " << routing_speedup
      << ",\n"
      << "  \"routing_incremental_identical\": "
      << (routing_incremental_identical ? "true" : "false") << ",\n"
      << "  \"dse_session_warm_speedup\": " << session_speedup << ",\n"
      << "  \"session_identical\": "
      << (session_identical ? "true" : "false") << ",\n"
      << "  \"route_table_dedup\": {\"rows\": " << dedup.rows
      << ", \"unique_rows\": " << dedup.unique_rows
      << ", \"bytes_undeduped\": " << dedup.bytes_undeduped
      << ", \"bytes_deduped\": " << dedup.bytes_deduped
      << ", \"ratio\": " << dedup.ratio() << "},\n"
      << "  \"benchmarks\": [\n"
      << entries << "\n  ]\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Exit non-zero when any acceptance invariant is violated so CI can gate
  // on the smoke run.
  bench::Gates gates;
  gates.check(results_identical,
              "sim results diverged between live routing and the shared "
              "route table");
  gates.check(incremental_identical,
              "incremental screening diverged from full screening");
  gates.check(greedy_speedup >= 1.5,
              "dse_greedy_incremental speedup %.2fx below the 1.5x "
              "acceptance bar",
              greedy_speedup);
  gates.check(routing_incremental_identical,
              "incremental routing diverged (loads, oracle, or search "
              "history)");
  gates.check(routing_speedup >= 2.0,
              "dse_greedy_routing_incremental speedup %.2fx below the 2x "
              "acceptance bar",
              routing_speedup);
  gates.check(session_identical,
              "warm session re-invocation diverged from the cold search "
              "(history, final report, or no cache hits)");
  gates.check(session_speedup >= 3.0,
              "dse_session_warm speedup %.2fx below the 3x acceptance bar",
              session_speedup);
  gates.check(dedup.bytes_deduped < dedup.bytes_undeduped,
              "route-table dedup did not shrink the table (%zu >= %zu "
              "bytes)",
              dedup.bytes_deduped, dedup.bytes_undeduped);
  return gates.exit_code();
}
