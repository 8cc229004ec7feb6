#include "shg/customize/incremental.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "shg/common/parallel.hpp"
#include "shg/common/strings.hpp"
#include "shg/topo/generators.hpp"

namespace shg::customize {

namespace {

/// Assembles CandidateMetrics with the expressions screen_topology evaluates
/// (same operands, same order — bit-identical doubles) from the screening
/// cost and the exact integer hop totals of a `num_nodes`-node,
/// `num_edges`-edge candidate.
CandidateMetrics make_metrics(const model::ScreeningCost& cost,
                              const graph::AllPairsTotals& totals,
                              int num_nodes, long long num_edges,
                              int num_tiles) {
  const long long n = num_nodes;
  SHG_REQUIRE(totals.reachable_pairs == n * n,
              "screening requires a connected topology");
  CandidateMetrics metrics;
  metrics.area_overhead = cost.area_overhead;
  const long long pairs = totals.reachable_pairs - n;  // exclude (u, u)
  if (pairs > 0) {
    metrics.avg_hops =
        static_cast<double>(totals.sum) / static_cast<double>(pairs);
  }
  metrics.diameter = static_cast<double>(totals.diameter);
  const double directed_links = 2.0 * static_cast<double>(num_edges);
  metrics.throughput_bound =
      directed_links / (static_cast<double>(num_tiles) * metrics.avg_hops);
  return metrics;
}

/// Per-node degrees of `g`, the base screen_child bumps for child radices.
std::vector<int> node_degrees(const graph::Graph& g) {
  std::vector<int> degrees(static_cast<std::size_t>(g.num_nodes()));
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    degrees[static_cast<std::size_t>(u)] = g.degree(u);
  }
  return degrees;
}

/// Skip distances present in `child` but not `parent`; throws unless the
/// child is a superset (the routing suffix replay only adds links).
std::vector<int> skip_delta(const std::set<int>& parent,
                            const std::set<int>& child, const char* dim) {
  std::vector<int> delta;
  for (int x : child) {
    if (parent.count(x) == 0) delta.push_back(x);
  }
  SHG_REQUIRE(delta.size() == child.size() - parent.size(),
              std::string("incremental screening requires the child's ") +
                  dim + " skips to be a superset of the parent's");
  return delta;
}

void require_superset(const topo::ShgParams& parent,
                      const topo::ShgParams& child) {
  skip_delta(parent.row_skips, child.row_skips, "row");
  skip_delta(parent.col_skips, child.col_skips, "column");
}

}  // namespace

ScreeningContext::ScreeningContext(const tech::ArchParams& arch,
                                   const topo::ShgParams& params)
    : ScreeningContext(arch, params, nullptr, nullptr) {}

ScreeningContext::ScreeningContext(const tech::ArchParams& arch,
                                   const topo::ShgParams& params,
                                   model::TileGeometryCache* tile_cache,
                                   const CandidateMetrics* known_metrics)
    : arch_(&arch),
      params_(params),
      topo_(topo::make_sparse_hamming(arch.rows, arch.cols, params.row_skips,
                                      params.col_skips)),
      routing_(topo_),
      degrees_(node_degrees(topo_.graph())) {
  if (known_metrics != nullptr) {
    // The caller screened this exact candidate already (screen_child
    // during candidate ranking); pricing it again would only reproduce the
    // same bits.
    metrics_ = *known_metrics;
    return;
  }
  // The routing context's loads feed the cost model directly (same
  // arithmetic, bit-identical areas) instead of a second from-scratch route
  // of the same topology; the hop totals come from the two factor lines.
  const model::ScreeningCost cost = model::evaluate_screening_cost(
      arch, topo_.radix(), routing_.loads(), tile_cache);
  metrics_ = make_metrics(
      cost,
      topo::shg_hop_totals(arch.rows, arch.cols, params_.row_skips,
                           params_.col_skips),
      topo_.graph().num_nodes(), topo_.graph().num_edges(),
      topo_.num_tiles());
}

CandidateMetrics ScreeningContext::screen_child(
    const topo::ShgParams& child, model::TileGeometryCache* tile_cache,
    Workspace* ws) const {
  const std::vector<int> new_row_skips =
      skip_delta(params_.row_skips, child.row_skips, "row");
  const std::vector<int> new_col_skips =
      skip_delta(params_.col_skips, child.col_skips, "column");
  if (new_row_skips.empty() && new_col_skips.empty()) return metrics_;

  Workspace local;
  if (ws == nullptr) ws = &local;

  // Child radix: the parent degrees bumped at the endpoints of the links
  // the new skip distances contribute, from the generator's own
  // enumeration (no child Topology exists on this path).
  ws->degrees.assign(degrees_.begin(), degrees_.end());
  long long new_links = 0;
  topo::for_each_skip_link(
      arch_->rows, arch_->cols, new_row_skips, new_col_skips,
      [&](topo::TileCoord a, topo::TileCoord b) {
        ++ws->degrees[static_cast<std::size_t>(topo_.node(a))];
        ++ws->degrees[static_cast<std::size_t>(topo_.node(b))];
        ++new_links;
      });
  int radix = 0;
  for (const int d : ws->degrees) radix = std::max(radix, d);

  // Channel loads: suffix replay against the parent's routing context —
  // bit-identical to global_route_loads on the materialized child.
  routing_.route_child_loads(new_row_skips, new_col_skips, &ws->loads);
  const model::ScreeningCost cost =
      model::evaluate_screening_cost(*arch_, radix, ws->loads, tile_cache);

  // Hop metrics: exact integer totals of the child's two factor lines.
  return make_metrics(
      cost,
      topo::shg_hop_totals(arch_->rows, arch_->cols, child.row_skips,
                           child.col_skips),
      topo_.graph().num_nodes(), topo_.graph().num_edges() + new_links,
      topo_.num_tiles());
}

void ScreeningContext::rebase(const topo::ShgParams& child,
                              const CandidateMetrics* known_metrics) {
  require_superset(params_, child);
  *this = ScreeningContext(*arch_, child, nullptr, known_metrics);
}

ScreeningContext ScreeningContext::derive(
    const topo::ShgParams& child, model::TileGeometryCache* tile_cache) const {
  require_superset(params_, child);
  return ScreeningContext(*arch_, child, tile_cache, nullptr);
}

TopologyScreeningContext::TopologyScreeningContext(
    const tech::ArchParams& arch, topo::Topology parent)
    : arch_(&arch),
      parent_(std::move(parent)),
      routing_(parent_),
      degrees_(node_degrees(parent_.graph())) {
  SHG_REQUIRE(parent_.rows() == arch.rows && parent_.cols() == arch.cols,
              "parent topology grid does not match the architecture");
  const graph::Graph& g = parent_.graph();
  // The routing run doubles as cost-model step 2 for the parent: the
  // radix+loads overload runs the same step 1/3/4 arithmetic as the
  // topology overload (pinned bit-identical in tests/cost_model_test.cpp),
  // so metrics() matches screen_topology(arch, parent) bit for bit.
  const model::ScreeningCost cost =
      model::evaluate_screening_cost(arch, parent_.radix(), routing_.loads());
  const graph::DistanceSummary summary =
      graph::distance_summary(parent_.graph());
  SHG_REQUIRE(summary.connected, "screening requires a connected topology");
  metrics_.area_overhead = cost.area_overhead;
  metrics_.avg_hops = summary.avg_hops;
  metrics_.diameter = static_cast<double>(summary.diameter);
  const double directed_links = 2.0 * g.num_edges();
  metrics_.throughput_bound =
      directed_links /
      (static_cast<double>(parent_.num_tiles()) * metrics_.avg_hops);
}

CandidateMetrics TopologyScreeningContext::screen_child(
    const std::vector<graph::Edge>& new_edges,
    model::TileGeometryCache* tile_cache, Workspace* ws) const {
  if (new_edges.empty()) return metrics_;
  Workspace local;
  if (ws == nullptr) ws = &local;
  const graph::Graph& g = parent_.graph();
  const int n = g.num_nodes();

  // Grid links for the routing repair, in append order (the order they
  // enter the child's greedy classes after the parent's same-length
  // links); the phys layer normalizes endpoint order itself. The child
  // must be materializable (Graph rejects parallel edges), so the delta
  // may neither overlap the parent nor repeat an edge within itself —
  // a duplicate would silently double-route the link and double-bump its
  // endpoint degrees, producing metrics for a child that cannot exist.
  ws->links.clear();
  std::vector<long long> seen;
  seen.reserve(new_edges.size());
  for (const graph::Edge& e : new_edges) {
    SHG_REQUIRE(!g.has_edge(e.u, e.v),
                "child delta edges must be absent from the parent");
    const auto [lo, hi] = std::minmax(e.u, e.v);
    seen.push_back(static_cast<long long>(lo) * g.num_nodes() + hi);
    ws->links.push_back(phys::GridLink{parent_.coord(e.u), parent_.coord(e.v)});
  }
  std::sort(seen.begin(), seen.end());
  SHG_REQUIRE(std::adjacent_find(seen.begin(), seen.end()) == seen.end(),
              "child delta edges must be distinct");

  // Hop metrics: bit-parallel all-pairs sweep over parent + overlay (exact
  // integer totals — same division operands as screen_topology).
  ws->overlay.assign(n, new_edges);
  const graph::AllPairsTotals totals =
      graph::all_pairs_totals(g, &ws->overlay, ws->bitsweep);

  // Child radix from bumped parent degrees.
  ws->degrees.assign(degrees_.begin(), degrees_.end());
  for (const graph::Edge& e : new_edges) {
    ++ws->degrees[static_cast<std::size_t>(e.u)];
    ++ws->degrees[static_cast<std::size_t>(e.v)];
  }
  int radix = 0;
  for (const int d : ws->degrees) radix = std::max(radix, d);

  // Channel loads: added-links suffix replay (joint replay when a diagonal
  // is in the divergent suffix) — bit-identical to routing the
  // materialized child from scratch.
  routing_.route_child_loads(ws->links, &ws->loads);
  const model::ScreeningCost cost =
      model::evaluate_screening_cost(*arch_, radix, ws->loads, tile_cache);

  return make_metrics(
      cost, totals, n,
      g.num_edges() + static_cast<long long>(new_edges.size()),
      parent_.num_tiles());
}

namespace {

/// Prefix forest over a candidate batch: every node's parameterization is
/// its parent's plus exactly one skip distance (canonical element order:
/// row skips ascending, then column skips ascending), so every child is a
/// skip superset its parent's context can screen or derive.
struct TrieNode {
  topo::ShgParams params;
  std::vector<std::size_t> batch_indices;  ///< batch entries equal to params
  std::vector<std::size_t> children;       ///< node ids, insertion order
};

constexpr int kColElementBase = 1 << 20;  ///< col skip x encodes as base + x

struct Trie {
  std::vector<TrieNode> nodes;
  std::vector<std::map<int, std::size_t>> child_by_code;

  Trie() : nodes(1), child_by_code(1) {}

  std::size_t descend(std::size_t from, int code) {
    auto [it, inserted] = child_by_code[from].emplace(code, nodes.size());
    if (inserted) {
      TrieNode node;
      node.params = nodes[from].params;
      if (code >= kColElementBase) {
        node.params.col_skips.insert(code - kColElementBase);
      } else {
        node.params.row_skips.insert(code);
      }
      nodes[from].children.push_back(it->second);
      nodes.push_back(std::move(node));
      child_by_code.emplace_back();
    }
    return it->second;
  }
};

}  // namespace

std::vector<CandidateMetrics> screen_batch_incremental(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  std::vector<CandidateMetrics> out(batch.size());
  if (batch.empty()) return out;

  Trie trie;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    std::size_t cur = 0;
    for (int x : batch[b].row_skips) cur = trie.descend(cur, x);
    for (int x : batch[b].col_skips) {
      cur = trie.descend(cur, kColElementBase + x);
    }
    trie.nodes[cur].batch_indices.push_back(b);
  }
  const std::vector<TrieNode>& nodes = trie.nodes;

  auto record = [&](const TrieNode& node, const CandidateMetrics& metrics) {
    for (std::size_t b : node.batch_indices) out[b] = metrics;
  };

  // Per-worker scratch: geometry memo plus screen_child's workspace.
  struct Scratch {
    model::TileGeometryCache tile_cache;
    ScreeningContext::Workspace ws;
  };

  // Recursive subtree walk: derive a context per interior node, screen
  // leaves from the parent context without building one.
  auto dfs = [&](auto&& self, const ScreeningContext& parent_ctx,
                 std::size_t node_id, Scratch& scratch) -> void {
    const TrieNode& node = nodes[node_id];
    if (node.children.empty()) {
      record(node, parent_ctx.screen_child(node.params, &scratch.tile_cache,
                                           &scratch.ws));
      return;
    }
    // A stepping-stone prefix absent from the batch records nothing; it
    // only supplies the routing context its descendants replay from.
    const ScreeningContext ctx =
        parent_ctx.derive(node.params, &scratch.tile_cache);
    record(node, ctx.metrics());
    for (std::size_t child : node.children) {
      self(self, ctx, child, scratch);
    }
  };

  // One context at the root. The interior depth-1 contexts fan out via one
  // parallel_for (each derive touches disjoint state and disjoint batch
  // indices — a serial loop here would be an Amdahl bottleneck, one
  // channel-routing run per interior node before any subtree starts), then
  // the depth-1 leaves and depth-2 subtrees fan out via a second one. Output slots are disjoint
  // throughout, so the result is deterministic per the parallel_for
  // contract.
  const ScreeningContext root_ctx(arch, nodes[0].params);
  record(nodes[0], root_ctx.metrics());

  struct Task {
    const ScreeningContext* ctx;
    std::size_t node_id;
  };
  std::vector<Task> tasks;
  std::vector<std::size_t> interior1;
  for (std::size_t c1 : nodes[0].children) {
    if (nodes[c1].children.empty()) {
      // Depth-1 leaves fan out with everything else (screen_child is
      // const-safe on a shared context) — batches made entirely of
      // single-skip candidates would otherwise run serially.
      tasks.push_back(Task{&root_ctx, c1});
    } else {
      interior1.push_back(c1);
    }
  }
  std::vector<std::unique_ptr<ScreeningContext>> level1(interior1.size());
  {
    std::vector<Scratch> scratch(parallel_worker_count(interior1.size()));
    parallel_for_with_worker(
        interior1.size(), [&](std::size_t i, std::size_t w) {
          const std::size_t c1 = interior1[i];
          level1[i] = std::make_unique<ScreeningContext>(
              root_ctx.derive(nodes[c1].params, &scratch[w].tile_cache));
          record(nodes[c1], level1[i]->metrics());
        });
  }
  for (std::size_t i = 0; i < interior1.size(); ++i) {
    for (std::size_t c2 : nodes[interior1[i]].children) {
      tasks.push_back(Task{level1[i].get(), c2});
    }
  }
  std::vector<Scratch> scratch(parallel_worker_count(tasks.size()));
  parallel_for_with_worker(tasks.size(), [&](std::size_t t, std::size_t w) {
    dfs(dfs, *tasks[t].ctx, tasks[t].node_id, scratch[w]);
  });
  return out;
}

std::vector<CandidateMetrics> verify_incremental_equivalence(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch) {
  const std::vector<CandidateMetrics> incremental =
      screen_batch_incremental(arch, batch);
  std::vector<CandidateMetrics> full(batch.size());
  parallel_for(batch.size(), [&](std::size_t i) {
    full[i] = screen_candidate(arch, batch[i]);
  });
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const CandidateMetrics& a = incremental[i];
    const CandidateMetrics& b = full[i];
    if (a == b) continue;
    std::ostringstream os;
    os << "incremental screening mismatch at batch index " << i << " ("
       << fmt_skip_sets(batch[i]) << "): incremental {"
       << a.area_overhead << ", " << a.avg_hops << ", " << a.diameter << ", "
       << a.throughput_bound << "} vs full {" << b.area_overhead << ", "
       << b.avg_hops << ", " << b.diameter << ", " << b.throughput_bound
       << "}";
    throw Error(os.str());
  }
  return incremental;
}

}  // namespace shg::customize
