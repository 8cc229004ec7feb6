// Sparse-Hamming-graph customization: the iterative strategy of Section V-a.
//
//  Step 1: start with the simplest SHG, the mesh (SR = SC = {});
//  Step 2: predict cost/performance of the current topology;
//  Step 3: compare against the design goals;
//  Step 4: adjust SR / SC following the design principles;
//  Step 5: repeat until satisfied.
//
// The automated strategy adds, per iteration, the skip distance with the
// best predicted benefit-per-area among all candidates that keep the NoC
// within the area budget. "Benefit" uses the fast analytic throughput bound
// for uniform traffic (2E / (N * avg_hops) flits/node/cycle — every flit
// occupies avg_hops of the 2E directed-link slots per cycle), so thousands
// of candidate topologies can be screened without simulation; the final
// configuration is then validated with the full toolchain.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "shg/model/cost_model.hpp"
#include "shg/tech/arch_params.hpp"
#include "shg/topo/topology.hpp"

namespace shg::customize {

class Session;  // customize/session.hpp: cross-invocation candidate cache

/// Design goals (Section V-b: maximize throughput, then minimize latency,
/// without exceeding 40% NoC area overhead).
struct Goal {
  double max_area_overhead = 0.40;
};

/// Analytic screening metrics of one SHG parameterization.
struct CandidateMetrics {
  double area_overhead = 0.0;
  double avg_hops = 0.0;
  double diameter = 0.0;
  double throughput_bound = 0.0;  ///< flits/node/cycle, uniform traffic

  /// Bitwise field equality — what the incremental-screening equivalence
  /// oracle and benches mean by "bit-identical".
  friend bool operator==(const CandidateMetrics&,
                         const CandidateMetrics&) = default;
};

/// One step of the greedy search (for audit / the examples' logs).
struct SearchStep {
  topo::ShgParams params;
  CandidateMetrics metrics;
  std::string note;
};

/// Search outcome: the chosen parameters, their full cost report, and the
/// audit trail of accepted steps.
struct SearchResult {
  topo::ShgParams params;
  CandidateMetrics metrics;
  model::CostReport cost;
  std::vector<SearchStep> history;
};

/// Options of the search engines. Screening always runs the incremental
/// stack (customize/incremental.hpp): hop totals from the child's two
/// factor lines (`topo::shg_hop_totals`), the parent's channel routing
/// replayed per child (phys/incremental_route.hpp) and topology-free child
/// pricing. It is exact — bit-identical to `screen_candidate` on every
/// candidate (oracle-tested) — so there is no switch back to per-candidate
/// screening.
///
/// `session` (default off) attaches a persistent DSE session
/// (customize/session.hpp): candidates whose fingerprints hit the
/// session's cache skip re-screening entirely, and the screening context
/// is only (re)built when a miss actually needs it — a warm re-invocation
/// over an already-screened space computes no hop totals and no channel
/// routing at all, yet produces a bit-identical SearchResult (history
/// notes included; oracle-tested). The session is read and written on the
/// calling thread only.
struct SearchOptions {
  Session* session = nullptr;  ///< not owned; must outlive the call
};

/// Renders a parameterization's skip sets as `SR={...} SC={...}` — the
/// one formatting every history note goes through (exposed so tests can
/// pin it with non-empty sets; the mesh start note alone cannot, since
/// empty sets render as the literal "{}").
std::string fmt_skip_sets(const topo::ShgParams& params);

/// Computes the screening metrics of one parameterization from scratch: the
/// correctness reference every incremental screening path is checked
/// against.
CandidateMetrics screen_candidate(const tech::ArchParams& arch,
                                  const topo::ShgParams& params);

/// Family-generic screening entry: the metrics of an arbitrary topology
/// over the arch grid (SlimNoC, torus, mesh, ...), priced from scratch.
/// Runs exactly the arithmetic of `screen_candidate` — which is a thin
/// wrapper that materializes the SHG and calls this — so SHG results are
/// unchanged bit for bit.
CandidateMetrics screen_topology(const tech::ArchParams& arch,
                                 const topo::Topology& topo);

/// Picks the winner of one greedy iteration among `candidates` (screened
/// neighbors of a parent with metrics `parent`), or returns npos when no
/// candidate is acceptable. Exposed for the scoring regression tests.
///
/// Selection rules:
///  * candidates over the area budget or without a strict throughput-bound
///    gain are rejected;
///  * candidates whose area overhead does not exceed the parent's are
///    "free improvements": they consume no budget, so any of them is taken
///    before any paid candidate. Within the tier the largest gain wins,
///    ties prefer the lower area overhead, then the earliest enumeration
///    index. (The previous implementation clamped the area delta to 1e-9
///    and scored gain / delta, which both inflated free candidates by ~1e9
///    and, for tiny gains, let a paid candidate outrank a free one — the
///    ordering depended on an arbitrary constant.)
///  * paid candidates are ranked by gain per extra area; ties prefer the
///    larger gain, then the earliest enumeration index.
inline constexpr std::size_t kNoCandidate = static_cast<std::size_t>(-1);
std::size_t select_greedy_candidate(const CandidateMetrics& parent,
                                    const std::vector<CandidateMetrics>& candidates,
                                    const Goal& goal);

/// Greedy customization: grows SR / SC one skip distance at a time, always
/// taking the best throughput-bound gain per added area, until no candidate
/// fits the budget.
SearchResult customize_greedy(const tech::ArchParams& arch, const Goal& goal,
                              const SearchOptions& options = {});

/// Exhaustive customization over all subsets of the given candidate skip
/// distances (exponential; intended for small grids and for validating the
/// greedy strategy in tests).
SearchResult customize_exhaustive(const tech::ArchParams& arch,
                                  const Goal& goal,
                                  const std::vector<int>& row_candidates,
                                  const std::vector<int>& col_candidates,
                                  const SearchOptions& options = {});

}  // namespace shg::customize
