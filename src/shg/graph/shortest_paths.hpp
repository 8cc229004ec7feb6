// Shortest-path computations over topology graphs.
//
// Hop distances drive routing-table construction and the diameter column of
// Table I; weighted variants drive the "minimal physical path" analysis
// (principle #4 of the paper) where edge weights are physical link lengths.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "shg/graph/adjacency.hpp"

namespace shg::graph {

/// Marker for unreachable nodes in hop-distance vectors.
inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Reusable scratch space for BFS sweeps. Constructing a workspace once and
/// passing it to the `bfs_distances` / `distance_summary` overloads below
/// removes the per-call heap allocation that dominates all-pairs sweeps
/// (the DSE screening hot path runs thousands of them per candidate batch).
/// After a sweep, `dist` holds the hop distances of the last source.
struct BfsWorkspace {
  std::vector<int> dist;      ///< per-node hop distance (kUnreachable = not seen)
  std::vector<NodeId> queue;  ///< flat FIFO; reused ring storage
  /// Per-label frontiers for the delta-BFS repair (all empty between calls;
  /// the inner vectors keep their capacity, so repeated repairs on one
  /// workspace stop allocating after the first).
  std::vector<std::vector<NodeId>> levels;

  /// Grows the buffers to `num_nodes` (no-op when already large enough).
  void resize(int num_nodes) {
    const auto n = static_cast<std::size_t>(num_nodes);
    if (dist.size() < n) dist.resize(n);
    if (queue.size() < n) queue.resize(n);
    if (levels.size() < n) levels.resize(n);
  }
};

/// BFS hop distances from `src` to every node (kUnreachable if disconnected).
std::vector<int> bfs_distances(const Graph& g, NodeId src);

/// Allocation-free BFS: fills `ws.dist[0..num_nodes)` in place, reusing the
/// workspace buffers. Equivalent to the allocating overload.
void bfs_distances(const Graph& g, NodeId src, BfsWorkspace& ws);

/// Delta-BFS repair after edge additions. `ws.dist[0..num_nodes)` must hold
/// BFS hop distances from some source over a subgraph of `g`, and
/// `new_edges` must list exactly the edges of `g` missing from that
/// subgraph. On return `ws.dist` equals `bfs_distances(g, src, ws)` run
/// from scratch — hop distances are unique, so the repaired row is
/// bit-identical to a fresh sweep.
///
/// Soundness: adding edges can only shrink distances, so the repair is a
/// bounded multi-source relaxation seeded at the new edges' endpoints; only
/// nodes whose distance actually decreases (plus their adjacency) are
/// touched, which is what makes incremental DSE screening cheaper than a
/// full sweep. A node may re-enter the queue when its label drops again,
/// but labels are integers bounded below, so the relaxation terminates.
void update_distances_add_edges(const Graph& g,
                                const std::vector<Edge>& new_edges,
                                BfsWorkspace& ws);

/// Aggregate statistics of one distance row, maintainable under repair.
struct DistRowStats {
  long long sum = 0;  ///< sum of finite distances (self-distance 0 included)
  int reachable = 0;  ///< nodes with finite distance (self included)
  int max = 0;        ///< largest finite distance
};

/// Statistics-fused repair: like the overload above, and additionally keeps
/// `hist` (hist[d] = number of nodes at distance d; at least num_nodes
/// entries) and `stats` consistent with the repaired row by touching them
/// only at label changes. Callers that fold a summary over many repaired
/// rows use this to skip the O(n) per-row re-scan — for screening sweeps
/// that re-scan is as expensive as the repair itself. `hist` and `stats`
/// must be consistent with `ws.dist` on entry (build them with a full scan
/// once, then carry them alongside the row).
void update_distances_add_edges(const Graph& g,
                                const std::vector<Edge>& new_edges,
                                BfsWorkspace& ws, int* hist,
                                DistRowStats& stats);

/// Fused single-pass all-pairs summary: average hops, diameter and
/// connectivity computed in ONE sweep of n BFS runs. Replaces the
/// `average_hops` + `diameter` pair (each of which runs its own all-pairs
/// sweep plus a connectivity probe — 2n + 2 BFS in total) on screening
/// paths. For disconnected graphs `connected` is false and the distance
/// statistics cover reachable pairs only.
struct DistanceSummary {
  bool connected = true;
  int diameter = 0;        ///< max finite hop distance over ordered pairs
  double avg_hops = 0.0;   ///< mean over reachable ordered pairs (u != v)
};

DistanceSummary distance_summary(const Graph& g);
DistanceSummary distance_summary(const Graph& g, BfsWorkspace& ws);

/// Exact integer aggregates of the all-pairs hop-distance matrix: pairs
/// are ordered, self pairs (distance 0) are included in `sum` and
/// `reachable_pairs`, and `diameter` is the largest finite distance.
/// Integer arithmetic is exact, so any two algorithms computing these agree
/// bit for bit — which is what lets SHG screening take them from the
/// factor-line product `topo::shg_hop_totals` instead of a sweep of the
/// whole grid without perturbing a single metric.
struct AllPairsTotals {
  long long sum = 0;
  long long reachable_pairs = 0;
  int diameter = 0;
};

/// Reusable buffers for all_pairs_totals (three bitset rows of one word per
/// node each; capacity persists across calls).
struct BitSweepWorkspace {
  std::vector<std::uint64_t> reached;
  std::vector<std::uint64_t> frontier;
  std::vector<std::uint64_t> next;
};

/// Bit-parallel all-pairs totals over `g`: sources are processed 64 at a
/// time as single-word node masks, one synchronous BFS round per distance
/// value, so the whole all-pairs sweep costs O(ceil(n/64) * diameter * E)
/// word operations instead of n separate BFS traversals.
AllPairsTotals all_pairs_totals(const Graph& g, BitSweepWorkspace& ws);

/// All-pairs hop distances; result[u][v] is the hop distance from u to v.
std::vector<std::vector<int>> all_pairs_hops(const Graph& g);

/// True iff the graph is connected (vacuously true for <= 1 nodes).
bool is_connected(const Graph& g);

/// Maximum finite hop distance over all pairs. Throws if disconnected.
int diameter(const Graph& g);

/// Mean hop distance over all ordered pairs (u != v). Throws if disconnected.
double average_hops(const Graph& g);

/// Dijkstra distances from `src` with non-negative per-edge weights.
std::vector<double> dijkstra(const Graph& g, NodeId src,
                             const std::vector<double>& edge_weight);

/// For a fixed destination `dest`, computes for every node the minimum total
/// edge weight achievable over *hop-minimal* paths to `dest`.
///
/// This answers Table I's "minimal paths present among hop-minimal routes"
/// question: a routing algorithm that minimizes router-to-router hops can
/// only use hop-minimal paths, so the physically shortest path it may pick
/// is exactly this quantity.
std::vector<double> min_weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight);

/// Like min_weight_over_min_hop_paths, but the *maximum* total edge weight
/// over hop-minimal paths — the physically worst path a hop-minimizing
/// routing algorithm might legally pick. Table I's "minimal paths used" is
/// satisfied only when even this worst case equals the physical minimum.
std::vector<double> max_weight_over_min_hop_paths(
    const Graph& g, NodeId dest, const std::vector<double>& edge_weight);

}  // namespace shg::graph
