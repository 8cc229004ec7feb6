// Incremental global routing for DSE screening (cost-model step 2).
//
// The customization flow prices every screened candidate through the greedy
// channel router, yet consecutive candidates differ from a cached parent by
// a handful of added skip links. This module reuses the parent's routing
// work across such children.
//
// Why a naive load patch is wrong: the router assigns channels longest link
// first, and every decision reads the loads committed by all earlier
// decisions. Inserting a new link of grid length x therefore perturbs the
// decisions of every link routed after it — but of NO link routed before
// it. Links are ordered by length class (descending; original edge order
// within a class), so:
//
//   * classes with length > x see exactly the same links in the same order
//     against the same load state — their decisions, and the load profile
//     they leave behind, are bit-identical to the parent run;
//   * classes with length <= x must be re-routed ("the affected suffix").
//
// A `RoutingContext` runs the parent once, recording the channel-load
// snapshot at every length-class boundary (the per-link channel assignments
// of the prefix are aggregated in those snapshots). Repairing a child means
// restoring the boundary snapshot of the largest divergent class and
// replaying the shared greedy core (route_core.hpp) over the suffix — the
// same decision code `global_route` runs, started from a state it provably
// reaches, so the repaired loads are bit-identical to `global_route_loads`
// on the child. The randomized differential oracle in
// tests/phys_incremental_test.cpp asserts exactly that.
//
// Orientation split: same-row links read and write only horizontal-channel
// loads, same-column links only vertical ones. When neither parent nor
// child has a diagonal (L-shaped, SlimNoC-style) link in the divergent
// suffix, the two orientations are independent decision streams, and each
// is repaired from its own divergence class — adding a row skip leaves the
// vertical profile untouched entirely. Diagonal links couple the streams
// (their channel choice reads both profiles), so any diagonal at or below
// the divergence class forces a joint replay of both.
//
// == Exactness & concurrency ==============================================
//
//  * Exactness. Every `route_child_loads` overload returns load profiles
//    BIT-IDENTICAL to `global_route_loads` on the materialized child —
//    guaranteed by executing the shared decision core (phys/route_core.hpp)
//    over a state the from-scratch run provably reaches, and asserted by
//    the randomized differential oracle in tests/phys_incremental_test.cpp.
//    There is no approximate mode: the repair is the only way a context
//    prices a child.
//  * Concurrency. A constructed RoutingContext is immutable; every
//    `route_child_loads` overload is const and touches only caller-owned
//    output state, so ANY number of threads may repair children against
//    one shared context concurrently (the screening engines do exactly
//    that, with one `GlobalRoutingResult` scratch per worker).
//    Construction itself must be exclusive — build the context before
//    fanning out.
#pragma once

#include <vector>

#include "shg/phys/global_route.hpp"

namespace shg::phys {

/// One router-to-router link in grid coordinates — the currency of the
/// generic added-links repair below. Endpoint order is normalized
/// internally (lower node id first), so callers may pass either order.
struct GridLink {
  topo::TileCoord a;
  topo::TileCoord b;

  friend bool operator==(const GridLink&, const GridLink&) = default;
};

/// Cached global-routing state of one parent topology.
class RoutingContext {
 public:
  /// Routes `parent` once (loads only), recording the length-class boundary
  /// snapshots the repairs below restore. The parent topology is not
  /// retained; re-keying a context onto a new parent is a fresh
  /// construction (one loads-only route — the same cost the cache saves per
  /// screened child, paid once per accepted DSE step).
  explicit RoutingContext(const topo::Topology& parent);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  /// Channel loads of the parent itself; bit-identical to
  /// `global_route_loads(parent)` (routes are not materialized).
  const GlobalRoutingResult& loads() const { return final_; }

  /// Repairs the cached profiles for an arbitrary `child` over the same
  /// grid. Divergence is detected per length class by comparing link
  /// geometry, so any child works — a child sharing no long-link prefix
  /// with the parent simply degenerates to a full re-route. Bit-identical
  /// to `global_route_loads(child)`. `routes` is left empty.
  GlobalRoutingResult route_child_loads(const topo::Topology& child) const;

  /// SHG fast path: the child is the parent plus the skip links of the
  /// given new skip distances, in `topo::for_each_skip_link` order (what
  /// `make_sparse_hamming` produces for a skip-superset child, appended
  /// after any same-length parent links). No child Topology is
  /// materialized — the replay enumerates the new links directly from the
  /// skip definition — which removes the child graph construction from the
  /// screening hot path. Requires a parent without diagonal links (the
  /// orientation split must apply); new skips must be strictly ascending
  /// (checked) and absent from the parent's same-orientation classes
  /// produced by skips.
  ///
  /// `out` is overwritten and may be reused across calls to keep the load
  /// grids' heap allocations warm.
  void route_child_loads(const std::vector<int>& new_row_skips,
                         const std::vector<int>& new_col_skips,
                         GlobalRoutingResult* out) const;

  /// Generic added-links fast path: the child is the parent plus
  /// `new_links`, appended after the parent's edges in the given order —
  /// exactly the child a copy of the parent plus `add_link` calls in that
  /// order would produce (links absent from the parent; the context cannot
  /// check this, it no longer holds the parent graph). No child Topology
  /// is materialized. Unlike the skip-distance overload, diagonal links
  /// are allowed anywhere: a diagonal at or below the divergence class
  /// (largest new non-unit class) couples the channel orientations and
  /// forces a joint replay of both; otherwise each orientation replays
  /// from its own divergence. Bit-identical to `global_route_loads` on the
  /// materialized child. This is what lets non-SHG families (SlimNoC,
  /// torus, arbitrary overlay children) flow through the same incremental
  /// screening stack as SHG candidates.
  ///
  /// `out` is overwritten and may be reused across calls.
  void route_child_loads(const std::vector<GridLink>& new_links,
                         GlobalRoutingResult* out) const;

 private:
  /// One link in greedy-order position: `a` is the lower-node-id endpoint
  /// (the L-shape of a diagonal turns at b's column, so the pair is
  /// ordered).
  using LinkRec = GridLink;
  /// All non-unit links of one length class, in greedy (edge-id) order,
  /// preceded by the load state the greedy run reaches just before routing
  /// the class.
  struct ClassEntry {
    int len = 0;
    std::vector<LinkRec> links;
    std::vector<std::vector<int>> h_before;
    std::vector<std::vector<int>> v_before;
  };

  static bool is_h(const LinkRec& r) { return r.a.row == r.b.row; }
  static bool is_v(const LinkRec& r) { return r.a.col == r.b.col; }
  static bool is_diag(const LinkRec& r) { return !is_h(r) && !is_v(r); }

  /// Load state after all parent classes with length > `len` (the boundary
  /// a suffix replay starting at class `len` restores).
  void state_before(int len, std::vector<std::vector<int>>* h,
                    std::vector<std::vector<int>>* v) const;

  void replay_new_row_skip(int skip, GlobalRoutingResult& result) const;
  void replay_new_col_skip(int skip, GlobalRoutingResult& result) const;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<ClassEntry> classes_;  ///< descending by len; len >= 2 only
  GlobalRoutingResult final_;        ///< parent loads; routes empty
  int min_diag_len_ = 0;  ///< smallest diagonal class; INT_MAX if none
};

}  // namespace shg::phys
