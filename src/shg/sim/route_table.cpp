#include "shg/sim/route_table.hpp"

#include <algorithm>
#include <limits>
#include <mutex>
#include <string>

#include "shg/common/parallel.hpp"

namespace shg::sim {

namespace {

/// Hash-consed candidate lists: a deduplicated CSR arena whose ids follow
/// first-appearance order, indexed by an open-addressing table of ids (no
/// per-row allocation; a few KB for a few hundred lists). One per build
/// task, plus the global one the tasks merge into.
class RowSet {
 public:
  /// Id of `row`'s content; a novel list extends the arena.
  std::uint32_t intern(std::span<const RouteCandidate> row) {
    // Neighbouring destinations often share a row: try the last id first.
    if (last_ != kFree && same(this->row(last_), row)) return last_;
    if (2 * (size() + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(row) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kFree) {
        slots_[i] = append(row);
        return last_ = slots_[i];
      }
      if (same(this->row(slots_[i]), row)) return last_ = slots_[i];
    }
  }

  std::size_t size() const { return offsets_.size() - 1; }

  std::span<const RouteCandidate> row(std::uint32_t id) const {
    return {arena_.data() + offsets_[id], arena_.data() + offsets_[id + 1]};
  }

  std::vector<RouteCandidate>& arena() { return arena_; }
  std::vector<std::uint32_t>& offsets() { return offsets_; }

 private:
  static constexpr std::uint32_t kFree =
      std::numeric_limits<std::uint32_t>::max();

  static std::size_t hash(std::span<const RouteCandidate> row) {
    // One multiply per candidate; its three fields go to separate 21-bit
    // lanes of one word (ports and VC indices are far below 2^21).
    const auto lane = [](int v, int shift) {
      return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v))
             << shift;
    };
    std::uint64_t h = row.size();
    for (const RouteCandidate& c : row) {
      const std::uint64_t word =
          lane(c.out_port, 0) ^ lane(c.vc_begin, 21) ^ lane(c.vc_end, 42);
      h = (h ^ word) * 0x9e3779b97f4a7c15ull;
    }
    return static_cast<std::size_t>(h ^ (h >> 32));
  }

  static bool same(std::span<const RouteCandidate> a,
                   std::span<const RouteCandidate> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const RouteCandidate& x, const RouteCandidate& y) {
                        return x.out_port == y.out_port &&
                               x.vc_begin == y.vc_begin &&
                               x.vc_end == y.vc_end;
                      });
  }

  std::uint32_t append(std::span<const RouteCandidate> row) {
    arena_.insert(arena_.end(), row.begin(), row.end());
    SHG_ASSERT(arena_.size() <= std::numeric_limits<std::uint32_t>::max(),
               "route table arena exceeds 32-bit offsets");
    offsets_.push_back(static_cast<std::uint32_t>(arena_.size()));
    return static_cast<std::uint32_t>(size() - 1);
  }

  /// Doubles the id table (power-of-two size, at most half full).
  void grow() {
    std::vector<std::uint32_t> wider(
        std::max<std::size_t>(2 * slots_.size(), 64), kFree);
    slots_.swap(wider);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint32_t id = 0; id < size(); ++id) {
      std::size_t i = hash(row(id)) & mask;
      while (slots_[i] != kFree) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<std::uint32_t> slots_;
  std::uint32_t last_ = kFree;  ///< id the previous intern() returned
  std::vector<RouteCandidate> arena_;
  std::vector<std::uint32_t> offsets_{0};
};

}  // namespace

template <typename Fn>
void RouteTable::for_each_state(int first_node, int last_node,
                                Fn&& fn) const {
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  std::size_t row = slot_base_[static_cast<std::size_t>(first_node)] * n;
  for (graph::NodeId node = first_node; node < last_node; ++node) {
    const int degree = degree_[static_cast<std::size_t>(node)];
    for (int slot = 0; slot < 1 + degree * num_vcs_; ++slot) {
      const int in_port = slot == 0 ? -1 : (slot - 1) / num_vcs_;
      const int in_vc = slot == 0 ? -1 : (slot - 1) % num_vcs_;
      for (graph::NodeId dest = 0; dest < num_nodes_; ++dest) {
        fn(node, in_port, in_vc, dest, row++);
      }
    }
  }
}

std::vector<int> RouteTable::node_ranges() const {
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  std::vector<int> bounds{0};
  for (int node = 1; node < num_nodes_; ++node) {
    const std::size_t rows_since =
        (slot_base_[static_cast<std::size_t>(node)] -
         slot_base_[static_cast<std::size_t>(bounds.back())]) *
        n;
    const std::size_t rows_left =
        (slot_base_[n] - slot_base_[static_cast<std::size_t>(node)]) * n;
    if (rows_since >= kBuildGrainRows && rows_left >= kBuildGrainRows) {
      bounds.push_back(node);
    }
  }
  bounds.push_back(num_nodes_);
  return bounds;
}

RouteTable::RouteTable(const topo::Topology& topo,
                       const RoutingFunction& routing, int num_vcs)
    : num_nodes_(topo.graph().num_nodes()),
      num_vcs_(num_vcs),
      routing_name_(routing.name()) {
  SHG_REQUIRE(num_vcs >= 1, "route table needs at least one VC");
  if (const UgalInfo* info = routing.ugal_info()) ugal_ = *info;
  const auto& g = topo.graph();
  const std::size_t n = static_cast<std::size_t>(num_nodes_);

  slot_base_.resize(n + 1);
  degree_.resize(n);
  std::size_t slots = 0;
  for (graph::NodeId u = 0; u < num_nodes_; ++u) {
    slot_base_[static_cast<std::size_t>(u)] = slots;
    degree_[static_cast<std::size_t>(u)] = g.degree(u);
    slots += 1 + static_cast<std::size_t>(g.degree(u)) *
                     static_cast<std::size_t>(num_vcs);
  }
  slot_base_[n] = slots;
  row_ids_.resize(slots * n);

  // One routing call per state (a second pass would double the routing
  // work). Each task hash-conses its range's rows into range-local ids,
  // written straight into row_ids_, then merges: global ids are assigned
  // range by range under `merge_mutex`, by whichever task completes the
  // next range in line. A range's local ids follow first appearance within
  // the range, so interning them in range order numbers every list at its
  // first appearance in the whole table, exactly as a serial build does.
  // Merging as soon as the order allows frees each range's rows early, so
  // only the few ranges that finish ahead of a slower one are held at once.
  const std::vector<int> bounds = node_ranges();
  const std::size_t tasks = bounds.size() - 1;
  const auto first_row = [&](std::size_t k) {
    return slot_base_[static_cast<std::size_t>(bounds[k])] * n;
  };
  std::vector<RowSet> local(tasks);
  std::vector<std::vector<std::uint32_t>> remap(tasks);
  std::vector<char> built(tasks, 0);
  std::size_t merged = 0;  // ranges [0, merged) are interned into `global`
  std::mutex merge_mutex;
  RowSet global;
  parallel_for(tasks, [&](std::size_t k) {
    std::vector<RouteCandidate> scratch(routing.max_candidates());
    RowSet& rows = local[k];
    std::size_t candidates = 0;
    for_each_state(bounds[k], bounds[k + 1], [&](int node, int in_port,
                                                 int in_vc, int dest,
                                                 std::size_t row) {
      // Ejection states (dest == node) bypass routing entirely; routing
      // functions may also reject states their own invariants make
      // unreachable (e.g. the up*/down* escape has no continuation for an
      // arrival direction the escape path never produces). Both store an
      // empty row: the simulator never looks them up, and if it ever did
      // the router's non-empty assertion reproduces live-mode failure.
      std::size_t count = 0;
      if (dest != node) {
        try {
          count = routing.route(node, in_port, in_vc, dest, scratch);
        } catch (const Error&) {
          count = 0;
        }
      }
      candidates += count;
      row_ids_[row] = rows.intern({scratch.data(), count});
    });

    const std::lock_guard<std::mutex> lock(merge_mutex);
    num_candidates_undeduped_ += candidates;
    built[k] = 1;
    for (; merged < tasks && built[merged] != 0; ++merged) {
      RowSet& done = local[merged];
      remap[merged].resize(done.size());
      for (std::uint32_t id = 0; id < done.size(); ++id) {
        remap[merged][id] = global.intern(done.row(id));
      }
      done = RowSet();
    }
  });

  // The first range interned into an empty set, so its ids are already
  // global; the others are rewritten in place (no second row buffer).
  parallel_for(tasks - 1, [&](std::size_t i) {
    const std::vector<std::uint32_t>& to_global = remap[i + 1];
    for (std::size_t row = first_row(i + 1); row < first_row(i + 2); ++row) {
      row_ids_[row] = to_global[row_ids_[row]];
    }
  });
  arena_ = std::move(global.arena());
  offsets_ = std::move(global.offsets());
  arena_.shrink_to_fit();
  offsets_.shrink_to_fit();
}

void RouteTable::verify_against(const RoutingFunction& routing) const {
  std::vector<RouteCandidate> scratch(routing.max_candidates());
  for_each_state(0, num_nodes_, [&](int node, int in_port, int in_vc,
                                    int dest, std::size_t /*row*/) {
    if (dest == node) return;
    std::size_t count = 0;
    try {
      count = routing.route(node, in_port, in_vc, dest, scratch);
    } catch (const Error&) {
      // The reference function rejects this state as unreachable; the
      // table must agree by having stored nothing for it.
      SHG_REQUIRE(lookup(node, in_port, in_vc, dest).empty(),
                  "route table has candidates for a state the routing "
                  "function rejects");
      return;
    }
    const auto actual = lookup(node, in_port, in_vc, dest);
    const bool match =
        count == actual.size() &&
        std::equal(actual.begin(), actual.end(), scratch.begin(),
                   [](const RouteCandidate& a, const RouteCandidate& b) {
                     return a.out_port == b.out_port &&
                            a.vc_begin == b.vc_begin &&
                            a.vc_end == b.vc_end;
                   });
    SHG_REQUIRE(match, "route table mismatch vs " + routing.name() +
                           " at node " + std::to_string(node) + " in_port " +
                           std::to_string(in_port) + " in_vc " +
                           std::to_string(in_vc) + " dest " +
                           std::to_string(dest));
  });
}

}  // namespace shg::sim
