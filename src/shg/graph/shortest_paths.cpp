#include "shg/graph/shortest_paths.hpp"

#include <algorithm>
#include <bit>
#include <queue>

namespace shg::graph {

void bfs_distances(const Graph& g, NodeId src, BfsWorkspace& ws) {
  SHG_REQUIRE(src >= 0 && src < g.num_nodes(), "bfs source out of range");
  const int n = g.num_nodes();
  ws.resize(n);
  int* dist = ws.dist.data();
  NodeId* queue = ws.queue.data();
  std::fill(dist, dist + n, kUnreachable);
  dist[src] = 0;
  queue[0] = src;
  int head = 0;
  int tail = 1;
  while (head < tail) {
    const NodeId u = queue[head++];
    const int du = dist[u] + 1;
    for (const Neighbor& nb : g.neighbors(u)) {
      if (dist[nb.node] == kUnreachable) {
        dist[nb.node] = du;
        queue[tail++] = nb.node;
      }
    }
  }
}

namespace {

/// No-op label-change observer for the plain repair overload.
struct NoRepairStats {
  void on_assign(int /*old_dist*/, int /*new_dist*/) {}
  void finish(int /*max_assigned*/) {}
};

/// Keeps a distance histogram and DistRowStats exact under label changes.
/// The histogram is exact after every assignment (stale queue entries do
/// not matter — each assignment moves exactly one node between buckets),
/// the sum telescopes over assignments, and the maximum is re-derived from
/// the histogram at the end by walking down from the largest candidate.
struct HistRepairStats {
  int* hist;
  DistRowStats* stats;

  void on_assign(int old_dist, int new_dist) {
    if (old_dist == kUnreachable) {
      // First finite label for this node: a new reachable pair.
      ++stats->reachable;
      stats->sum += new_dist;
    } else {
      stats->sum += new_dist - old_dist;
      --hist[old_dist];
    }
    ++hist[new_dist];
  }

  void finish(int max_assigned) {
    // Distances only shrink under edge additions, but newly reached nodes
    // may enter above the old maximum — start from the larger candidate.
    int hi = std::max(stats->max, max_assigned);
    while (hi > 0 && hist[hi] == 0) --hi;
    stats->max = hi;
  }
};

template <typename Stats>
void repair_distances(const Graph& g, const std::vector<Edge>& new_edges,
                      BfsWorkspace& ws, Stats stats) {
  const int n = g.num_nodes();
  ws.resize(n);
  int* dist = ws.dist.data();

  // Seed: endpoints whose label shrinks through a new edge, bucketed by
  // their tentative label. The unreachable guard keeps kUnreachable + 1
  // from overflowing and lets the repair grow a region the new edges just
  // connected. Edge membership in `g` is a documented precondition, not
  // re-validated here: screening repairs one row per source, and an
  // adjacency scan per edge per source would cost a third of the sweep the
  // repair exists to avoid. Endpoint ids are still range-checked.
  int lo = n;   // first non-empty level
  int hi = -1;  // last non-empty level; labels stay < n (see below)
  auto improve = [&](NodeId v, int label) {
    SHG_ASSERT(label < n, "repair label out of range: ws.dist does not hold "
                          "BFS distances of a subgraph");
    stats.on_assign(dist[v], label);
    dist[v] = label;
    ws.levels[static_cast<std::size_t>(label)].push_back(v);
    if (label < lo) lo = label;
    if (label > hi) hi = label;
  };
  for (const Edge& e : new_edges) {
    SHG_REQUIRE(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                "new edge endpoint out of range");
    if (dist[e.u] != kUnreachable && dist[e.u] + 1 < dist[e.v]) {
      improve(e.v, dist[e.u] + 1);
    }
    if (dist[e.v] != kUnreachable && dist[e.v] + 1 < dist[e.u]) {
      improve(e.u, dist[e.v] + 1);
    }
  }
  if (hi < 0) return;  // no label shrinks: the row is already correct

  // Dial-style propagation in ascending label order: when level L is
  // processed every smaller label is final, so a node is expanded exactly
  // once — at its final label — and entries whose label dropped after they
  // were bucketed are skipped as stale. Only nodes whose distance actually
  // changed (plus their adjacency) are touched, and the level walk stops at
  // the deepest bucketed label rather than n. Labels never reach n: a
  // final label of n-1 means a shortest path covering every node, whose
  // successors are all labeled already.
  for (int level = lo; level <= hi; ++level) {
    std::vector<NodeId>& frontier = ws.levels[static_cast<std::size_t>(level)];
    // Relaxations from level L push to level L+1 only, never into this
    // frontier, so plain index iteration is safe.
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const NodeId u = frontier[i];
      if (dist[u] != level) continue;  // improved after bucketing: stale
      const int next = level + 1;
      for (const Neighbor& nb : g.neighbors(u)) {
        if (next < dist[nb.node]) {
          SHG_ASSERT(next < n,
                     "repair label out of range: ws.dist does not hold BFS "
                     "distances of a subgraph");
          stats.on_assign(dist[nb.node], next);
          dist[nb.node] = next;
          ws.levels[static_cast<std::size_t>(next)].push_back(nb.node);
          if (next > hi) hi = next;
        }
      }
    }
    frontier.clear();  // restore the all-empty workspace invariant
  }
  stats.finish(hi);
}

}  // namespace

void update_distances_add_edges(const Graph& g,
                                const std::vector<Edge>& new_edges,
                                BfsWorkspace& ws) {
  repair_distances(g, new_edges, ws, NoRepairStats{});
}

void update_distances_add_edges(const Graph& g,
                                const std::vector<Edge>& new_edges,
                                BfsWorkspace& ws, int* hist,
                                DistRowStats& stats) {
  repair_distances(g, new_edges, ws, HistRepairStats{hist, &stats});
}

std::vector<int> bfs_distances(const Graph& g, NodeId src) {
  BfsWorkspace ws;
  bfs_distances(g, src, ws);
  ws.dist.resize(static_cast<std::size_t>(g.num_nodes()));
  return std::move(ws.dist);
}

std::vector<std::vector<int>> all_pairs_hops(const Graph& g) {
  std::vector<std::vector<int>> result;
  result.reserve(static_cast<std::size_t>(g.num_nodes()));
  BfsWorkspace ws;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    bfs_distances(g, u, ws);
    result.emplace_back(ws.dist.begin(),
                        ws.dist.begin() + g.num_nodes());
  }
  return result;
}

bool is_connected(const Graph& g) {
  if (g.num_nodes() <= 1) return true;
  BfsWorkspace ws;
  bfs_distances(g, 0, ws);
  return std::none_of(ws.dist.begin(), ws.dist.begin() + g.num_nodes(),
                      [](int d) { return d == kUnreachable; });
}

DistanceSummary distance_summary(const Graph& g, BfsWorkspace& ws) {
  DistanceSummary summary;
  const int n = g.num_nodes();
  if (n <= 1) return summary;
  long long total = 0;
  long long reachable_pairs = 0;
  for (NodeId u = 0; u < n; ++u) {
    bfs_distances(g, u, ws);
    const int* dist = ws.dist.data();
    for (int v = 0; v < n; ++v) {
      const int d = dist[v];
      if (d == kUnreachable) {
        summary.connected = false;
        continue;
      }
      total += d;
      ++reachable_pairs;
      if (d > summary.diameter) summary.diameter = d;
    }
  }
  // reachable_pairs counts (u, u) self-pairs at distance 0; exclude them
  // from the mean's denominator (they contribute nothing to the numerator).
  reachable_pairs -= n;
  if (reachable_pairs > 0) {
    summary.avg_hops =
        static_cast<double>(total) / static_cast<double>(reachable_pairs);
  }
  return summary;
}

DistanceSummary distance_summary(const Graph& g) {
  BfsWorkspace ws;
  return distance_summary(g, ws);
}

AllPairsTotals all_pairs_totals(const Graph& g, BitSweepWorkspace& ws) {
  const int n = g.num_nodes();
  AllPairsTotals totals;
  if (n <= 0) return totals;
  const std::size_t un = static_cast<std::size_t>(n);
  ws.reached.resize(un);
  ws.frontier.resize(un);
  ws.next.resize(un);

  // Sources in batches of 64: mask bit s of word v says "source base+s has
  // reached node v". One synchronous round per distance value d: a node's
  // next-mask is the OR of its neighbors' frontier masks minus everything
  // already reached, and popcounts of the fresh bits are exactly the number
  // of (source, node) pairs at distance d.
  for (int base = 0; base < n; base += 64) {
    const int count = std::min(64, n - base);
    totals.reachable_pairs += count;  // self pairs, distance 0
    std::fill(ws.reached.begin(), ws.reached.end(), 0);
    for (int s = 0; s < count; ++s) {
      ws.reached[static_cast<std::size_t>(base + s)] =
          std::uint64_t{1} << s;
    }
    std::copy(ws.reached.begin(), ws.reached.end(), ws.frontier.begin());

    for (int d = 1;; ++d) {
      bool any = false;
      for (NodeId v = 0; v < n; ++v) {
        std::uint64_t acc = 0;
        for (const Neighbor& nb : g.neighbors(v)) {
          acc |= ws.frontier[static_cast<std::size_t>(nb.node)];
        }
        acc &= ~ws.reached[static_cast<std::size_t>(v)];
        ws.next[static_cast<std::size_t>(v)] = acc;
        if (acc != 0) {
          const int cnt = std::popcount(acc);
          totals.sum += static_cast<long long>(d) * cnt;
          totals.reachable_pairs += cnt;
          ws.reached[static_cast<std::size_t>(v)] |= acc;
          any = true;
        }
      }
      if (!any) break;
      if (d > totals.diameter) totals.diameter = d;
      std::swap(ws.frontier, ws.next);
    }
  }
  return totals;
}

int diameter(const Graph& g) {
  const DistanceSummary summary = distance_summary(g);
  SHG_REQUIRE(summary.connected, "diameter requires a connected graph");
  return summary.diameter;
}

double average_hops(const Graph& g) {
  SHG_REQUIRE(g.num_nodes() >= 2, "average_hops requires >= 2 nodes");
  const DistanceSummary summary = distance_summary(g);
  SHG_REQUIRE(summary.connected, "average_hops requires a connected graph");
  return summary.avg_hops;
}

std::vector<double> dijkstra(const Graph& g, NodeId src,
                             const std::vector<double>& edge_weight) {
  SHG_REQUIRE(src >= 0 && src < g.num_nodes(), "dijkstra source out of range");
  SHG_REQUIRE(static_cast<int>(edge_weight.size()) == g.num_edges(),
              "one weight per edge required");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(static_cast<std::size_t>(g.num_nodes()), kInf);
  using Item = std::pair<double, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace(0.0, src);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (const Neighbor& n : g.neighbors(u)) {
      const double w = edge_weight[static_cast<std::size_t>(n.edge)];
      SHG_REQUIRE(w >= 0.0, "dijkstra requires non-negative weights");
      const double nd = d + w;
      if (nd < dist[static_cast<std::size_t>(n.node)]) {
        dist[static_cast<std::size_t>(n.node)] = nd;
        heap.emplace(nd, n.node);
      }
    }
  }
  return dist;
}

namespace {

enum class HopDagObjective { kMin, kMax };

std::vector<double> weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight,
    HopDagObjective objective) {
  SHG_REQUIRE(dest >= 0 && dest < g.num_nodes(), "dest out of range");
  SHG_REQUIRE(static_cast<int>(edge_weight.size()) == g.num_edges(),
              "one weight per edge required");
  const auto hops = bfs_distances(g, dest);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> weight(static_cast<std::size_t>(g.num_nodes()), kInf);
  weight[static_cast<std::size_t>(dest)] = 0.0;

  // Process nodes in increasing hop distance; every hop-minimal path steps
  // from hop level h to level h-1, so a single DP sweep suffices.
  std::vector<NodeId> order;
  order.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (hops[static_cast<std::size_t>(u)] != kUnreachable) order.push_back(u);
  }
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return hops[static_cast<std::size_t>(a)] < hops[static_cast<std::size_t>(b)];
  });
  for (NodeId u : order) {
    if (u == dest) continue;
    const int hu = hops[static_cast<std::size_t>(u)];
    double best = kInf;
    bool found = false;
    for (const Neighbor& n : g.neighbors(u)) {
      if (hops[static_cast<std::size_t>(n.node)] == hu - 1) {
        const double cand = weight[static_cast<std::size_t>(n.node)] +
                            edge_weight[static_cast<std::size_t>(n.edge)];
        if (!found) {
          best = cand;
          found = true;
        } else if (objective == HopDagObjective::kMin) {
          best = std::min(best, cand);
        } else {
          best = std::max(best, cand);
        }
      }
    }
    weight[static_cast<std::size_t>(u)] = best;
  }
  return weight;
}

}  // namespace

std::vector<double> min_weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight) {
  return weight_over_min_hop_paths(g, dest, edge_weight,
                                   HopDagObjective::kMin);
}

std::vector<double> max_weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight) {
  return weight_over_min_hop_paths(g, dest, edge_weight,
                                   HopDagObjective::kMax);
}

}  // namespace shg::graph
