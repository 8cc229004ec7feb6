// Generators for all topologies of the paper (Figure 1 + Section III).
//
// Every generator returns a connected Topology over an R x C tile grid and
// throws shg::Error when the family is not applicable to the given grid
// (e.g. hypercube requires R and C to be powers of two; SlimNoC requires
// R*C = 2*p^2 for a prime power p — the footnotes of Table I).
#pragma once

#include <set>

#include "shg/graph/shortest_paths.hpp"
#include "shg/topo/topology.hpp"

namespace shg::topo {

/// Enumerates the links a set of SHG skip distances contributes on an
/// R x C grid (Section III-b): for each row r, each x in SR, each start i
/// with i + x < C, a link T(r,i) <-> T(r,i+x); columns analogously, rows
/// first. This is THE definition of skip connectivity — make_sparse_hamming
/// adds links in exactly this order, and shg_hop_totals' line chords and
/// the incremental screening's new links come from the same enumeration,
/// so they can never diverge. Skip containers need only be iterable in ascending order
/// (std::set, sorted vector).
template <typename RowSkips, typename ColSkips, typename Fn>
void for_each_skip_link(int rows, int cols, const RowSkips& row_skips,
                        const ColSkips& col_skips, Fn&& fn) {
  for (int r = 0; r < rows; ++r) {
    for (int x : row_skips) {
      for (int i = 0; i + x < cols; ++i) {
        fn(TileCoord{r, i}, TileCoord{r, i + x});
      }
    }
  }
  for (int c = 0; c < cols; ++c) {
    for (int x : col_skips) {
      for (int i = 0; i + x < rows; ++i) {
        fn(TileCoord{i, c}, TileCoord{i + x, c});
      }
    }
  }
}

/// Ring (Fig. 1a): links form a single cycle through all tiles. When R*C is
/// even the cycle is a Hamiltonian cycle of the grid graph (all links of
/// length 1); for odd R*C no such cycle exists and the boustrophedon path is
/// closed with one long link.
Topology make_ring(int rows, int cols);

/// 2D mesh (Fig. 1b): neighboring tiles are connected.
Topology make_mesh(int rows, int cols);

/// Concentrated 2D mesh (booksim2 cmesh-style): a mesh of R x C routers
/// where every router serves `concentration` terminals. The link graph is
/// the plain mesh; the concentration factor rides on the topology so the
/// simulator gives each router that many endpoint ports and traffic
/// patterns address the (R * sub_rows) x (C * sub_cols) terminal grid
/// (sim/concentration.hpp). concentration == 1 is exactly make_mesh.
Topology make_concentrated_mesh(int rows, int cols, int concentration);

/// 2D torus (Fig. 1c): mesh plus row/column wrap-around links.
Topology make_torus(int rows, int cols);

/// Folded 2D torus (Fig. 1d): torus re-embedded so no link is longer than
/// two tiles (each row/column is a folded cycle: i <-> i+2 plus the two end
/// links).
Topology make_folded_torus(int rows, int cols);

/// Hypercube (Fig. 1e): tiles are labeled with Gray-coded row/column bits so
/// grid neighbors differ in exactly one bit; tiles whose labels differ in one
/// bit are connected. Requires R and C to be powers of two.
Topology make_hypercube(int rows, int cols);

/// Flattened butterfly (Fig. 1g): fully connected rows and columns.
Topology make_flattened_butterfly(int rows, int cols);

/// SlimNoC (Fig. 1f): McKay-Miller-Siran-style graph over GF(p) with
/// 2*p^2 = R*C vertices, degree ~ 3p/2 and diameter 2. Requires p to be a
/// prime power; for even p the quadratic-residue split does not exist and a
/// deterministic search selects the connection sets (see slim_noc.cpp).
Topology make_slim_noc(int rows, int cols);

/// Sparse Hamming graph (Section III-b): 2D mesh plus, for every row, links
/// (r, i) <-> (r, i + x) for all x in row_skips, and, for every column, links
/// (i, c) <-> (i + x, c) for all x in col_skips.
/// Requires row_skips subset of {2..C-1} and col_skips subset of {2..R-1}.
Topology make_sparse_hamming(int rows, int cols, const std::set<int>& row_skips,
                             const std::set<int>& col_skips);

/// Exact all-pairs hop totals of make_sparse_hamming(rows, cols, row_skips,
/// col_skips) without building it. Every row carries the same skips and
/// every column the same, so the graph is the Cartesian product of one
/// C-tile row line (path plus SR chords) and one R-tile column line (path
/// plus SC chords), and a hop distance is the sum of the two line
/// distances. With S and D the line's all-pairs hop sum and diameter:
/// sum = R^2 * S_row + C^2 * S_col, diameter = D_row + D_col, and all
/// (R*C)^2 ordered pairs are reachable. The line chords come from
/// for_each_skip_link, so the totals and the generator cannot diverge.
/// Integer totals, so they equal graph::all_pairs_totals on the built
/// graph exactly. Throws on the skips make_sparse_hamming rejects.
graph::AllPairsTotals shg_hop_totals(int rows, int cols,
                                     const std::set<int>& row_skips,
                                     const std::set<int>& col_skips);

/// Ruche network (related work [41]): mesh plus one fixed skip distance per
/// dimension — exactly the sparse Hamming graph with SR = {row_skip} and
/// SC = {col_skip}. Skip values < 2 mean "no skip links in that dimension".
Topology make_ruche(int rows, int cols, int row_skip, int col_skip);

/// Number of distinct parameterizations of a topology family for a given
/// grid, as reported in the last column of Table I (0 when not applicable).
/// Sparse Hamming graph: 2^(R+C-4); all others: 0 or 1.
double num_configurations(Kind kind, int rows, int cols);

}  // namespace shg::topo
