// Structure-of-arrays simulation engine: the simulator's raw-speed path.
//
// Produces results bit-identical to the reference AoS path (Simulator's
// Network/Router/Channel objects) — same PRNG draw order, same allocator
// decisions, same floating-point accumulation order, same cycle count —
// while replacing its scaling bottlenecks:
//
//  * Flat slabs instead of per-object deques. Input-VC buffers are
//    fixed-capacity rings inside one network-owned arena indexed by
//    (router, port, vc); a buffered flit is a 16-byte {cycle, packet, flags}
//    entry and per-packet metadata (src, dest, eject port, hop count) lives
//    in packet-indexed arrays filled once at generation. No
//    push_back/pop_front churn, no pointer chasing, no per-flit copies of
//    cold fields.
//
//  * An arrival wheel instead of per-channel pipelines. A flit or credit
//    sent over a link of latency L at cycle t is written into the wheel
//    bucket of cycle t + L (max link latency + 1 buckets); one land() pass
//    at the start of each cycle applies that cycle's bucket — flits into
//    their input-VC buffers, credits onto their output-VC counters — so no
//    router polls its links for arrivals.
//
//  * An active-router worklist instead of full-network sweeps. Every router
//    carries a work counter (buffered flits + NI-queued flits); only routers
//    holding flits are processed, and a router joins the list when a flit
//    lands in it or a packet enters its NI queue. Router phases commute
//    across routers (wheel entries land at now + latency >= now + 1, so
//    nothing sent in cycle t is visible before t+1), except that ejection
//    statistics must accumulate in the reference tile order — ejections
//    therefore collect into a per-cycle buffer that is sorted by endpoint
//    before the statistics pass.
//
//  * Whole-network quiescence fast-forward. The injection schedule is a
//    pure function of the seed (no draw depends on network state, source
//    queues are unbounded), so it is pre-generated draw-for-draw. When
//    nothing is in flight — no flit anywhere AND no credit on the wheel —
//    every cycle until the next scheduled injection is a provable no-op and
//    `now` jumps there directly, preserving the exact cycle count the
//    reference loop reports.
//
// See ARCHITECTURE.md ("Simulator hot loop") for the invariants that make
// the equivalences exact.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "shg/sim/config.hpp"
#include "shg/sim/injection.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/routing.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic.hpp"
#include "shg/topo/topology.hpp"

namespace shg::sim {

/// One-shot engine: construct, run(), discard. The Simulator front end
/// owns topology/routing/table/process and constructs one engine per run.
class SoaEngine {
 public:
  /// `routing` may be null only when `table` is non-null (every decision is
  /// then a table lookup);
  /// `process` must be non-null and is reset() by run().
  SoaEngine(const topo::Topology& topo, const std::vector<int>& link_latencies,
            const SimConfig& config, const TrafficPattern& pattern,
            int endpoints_per_tile, const RoutingFunction* routing,
            const RouteTable* table, InjectionProcess* process);

  /// Runs warmup + measurement + drain and returns the statistics,
  /// bit-identical to the AoS reference path.
  SimResult run();

  /// Packets sent on a UGAL non-minimal leg (0 under an effective kMinimal
  /// policy); matches the reference engine's per-router counter sum.
  long long ugal_nonminimal() const { return ugal_nonminimal_; }

 private:
  // Flags on buffered/in-flight flit entries.
  static constexpr std::uint8_t kHead = 1;
  static constexpr std::uint8_t kTail = 2;
  // Input-VC allocation states (the reference InputVc::State values).
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kVcAlloc = 1;
  static constexpr std::uint8_t kActive = 2;

  /// A flit waiting in an input-VC buffer slab.
  struct BufFlit {
    Cycle ready = 0;  ///< earliest switchable cycle (router pipeline delay)
    std::int32_t pkt = 0;
    std::uint8_t flags = 0;
  };
  /// A flit on a link, landing in input-VC slot `slot` of `router`.
  struct FlitArrival {
    std::uint32_t slot = 0;
    std::int32_t router = 0;
    std::int32_t pkt = 0;
    std::uint8_t flags = 0;
  };
  /// What lands in one cycle: flits, and credits as the upstream output-VC
  /// slot they return to.
  struct Bucket {
    std::vector<FlitArrival> flits;
    std::vector<std::uint32_t> credits;
  };
  /// The far end of a network port's link.
  struct PortLink {
    std::uint32_t peer = 0;  ///< flat port id at the neighbor
    std::int32_t router = 0;  ///< the neighbor
    std::int32_t latency = 0;
  };
  /// One ejected flit, buffered per cycle and sorted by endpoint so
  /// statistics accumulate in the reference harvest order.
  struct EjectRec {
    std::int32_t endpoint = 0;  ///< tile * local ports + local port
    std::int32_t pkt = 0;
    std::uint8_t flags = 0;
  };
  /// Growable ring of packet ids (an NI source queue; unbounded like the
  /// reference deque, but one entry per packet instead of per flit).
  struct PktRing {
    std::vector<std::int32_t> buf;
    std::size_t head = 0;
    std::size_t count = 0;

    void push(std::int32_t id);
    std::int32_t front() const { return buf[head]; }
    void pop() {
      head = head + 1 == buf.size() ? 0 : head + 1;
      --count;
    }
  };

  // (router, port, vc) -> flat slot id; buffers slab-index at slot * depth.
  std::size_t slot(int r, int port, int vc) const {
    return (port_base_[static_cast<std::size_t>(r)] +
            static_cast<std::size_t>(port)) *
               static_cast<std::size_t>(vcs_) +
           static_cast<std::size_t>(vc);
  }

  void build_fabric(const topo::Topology& topo,
                    const std::vector<int>& link_latencies);
  /// Replays the reference generation loop draw-for-draw into the
  /// per-packet arrays (the injection schedule).
  void pregenerate(const topo::Topology& topo);

  void activate(int r) {
    if (!queued_[static_cast<std::size_t>(r)]) {
      queued_[static_cast<std::size_t>(r)] = 1;
      active_.push_back(r);
    }
  }

  /// Applies the wheel bucket of cycle `now` and makes it the current one.
  void land(Cycle now);
  /// The wheel bucket `latency` cycles after the current one.
  Bucket& bucket_after(int latency) {
    std::size_t i = wheel_now_ + static_cast<std::size_t>(latency);
    if (i >= wheel_.size()) i -= wheel_.size();
    return wheel_[i];
  }
  void ni_inject(int r, Cycle now);
  void allocate(int r, Cycle now);
  /// Queues slot s of router r for route computation.
  void route_later(int r, std::size_t s) {
    const std::size_t ri = static_cast<std::size_t>(r);
    route_list_[port_base_[ri] * static_cast<std::size_t>(vcs_) +
                static_cast<std::size_t>(route_pending_[ri]++)] =
        static_cast<std::uint32_t>(s);
  }
  /// Computes slot s's route and moves it onto router r's VA list.
  void compute_route(int r, std::size_t s);
  /// Candidate row for state (in_port, in_vc) toward `dest` at router r: a
  /// table lookup, or a live route() call into the scratch buffer, valid
  /// until the next row() call. Inline, so the table path stays a pair of
  /// array reads in the hot loop.
  std::span<const RouteCandidate> row(int r, int in_port, int in_vc,
                                      int dest) {
    if (table_ != nullptr) return table_->lookup(r, in_port, in_vc, dest);
    return {route_scratch_.data(),
            routing_->route(r, in_port, in_vc, dest, route_scratch_)};
  }
  /// Points slot s's candidate list at `routes`.
  void set_routes(std::size_t s, std::span<const RouteCandidate> routes) {
    ivc_routes_[s] = routes.data();
    ivc_routes_len_[s] = static_cast<std::int32_t>(routes.size());
  }
  /// Points slot s at router r's row for (in_port, in_vc) toward `dest`. A
  /// live row is copied into the slot's own storage (reusing its capacity),
  /// since the scratch buffer it sits in is overwritten by the next row().
  void set_row(std::size_t s, int r, int in_port, int in_vc, int dest) {
    const auto routes = row(r, in_port, in_vc, dest);
    if (table_ == nullptr) {
      ivc_live_[s].assign(routes.begin(), routes.end());
      set_routes(s, ivc_live_[s]);
    } else {
      set_routes(s, routes);
    }
  }

  /// UGAL-mode route computation (mirrors Router::compute_route_ugal):
  /// injection-time minimal/non-minimal decision, via-leg candidate splice,
  /// escape-band passthrough.
  void compute_route_ugal(int r, std::size_t s, int in_port, int in_vc,
                          std::int32_t pkt, int dest);
  /// Output port of the first injection-row candidate toward `to`.
  int first_port(int r, int to);
  /// Downstream adaptive-band occupancy of router r's output `port`.
  int adaptive_occupancy(int r, int port) const;
  /// Appends the adaptive (or escape) band of the (in_port, in_vc) row
  /// toward `to` onto `out`.
  void append_band(int r, int in_port, int in_vc, int to, bool adaptive,
                   std::vector<RouteCandidate>& out);

  void push_buf(std::size_t s, Cycle ready, std::int32_t pkt,
                std::uint8_t flags);

  // --- Configuration (copied out of SimConfig for tight loop access) -----
  SimConfig config_;
  const TrafficPattern* pattern_;
  const RoutingFunction* routing_;
  const RouteTable* table_;
  InjectionProcess* process_;
  int num_routers_ = 0;
  int local_ports_ = 0;  ///< endpoint ports per tile
  int vcs_ = 0;
  int depth_ = 0;        ///< input buffer depth, flits
  int pkt_flits_ = 0;    ///< flits per packet
  int delay_ = 0;        ///< router pipeline delay, cycles
  int max_ports_ = 0;
  bool ugal_mode_ = false;
  const UgalInfo* ugal_info_ = nullptr;
  long long ugal_nonminimal_ = 0;

  // --- Fabric layout ------------------------------------------------------
  std::vector<int> net_ports_;          ///< per router
  std::vector<std::size_t> port_base_;  ///< per router: first flat port id
  std::vector<PortLink> links_;         ///< per flat net port

  // --- Hot state slabs ----------------------------------------------------
  std::vector<BufFlit> buf_;              ///< input VC buffers, slot * depth
  std::vector<std::uint16_t> buf_head_;   ///< per slot: ring head
  std::vector<std::uint16_t> buf_count_;  ///< per slot: occupancy
  /// Arrival wheel: bucket t % size holds what lands at cycle t.
  std::vector<Bucket> wheel_;
  std::size_t wheel_now_ = 0;  ///< bucket of the cycle being simulated

  // Input-VC allocation state (per slot).
  std::vector<std::uint8_t> ivc_state_;
  std::vector<std::int32_t> ivc_out_port_;
  std::vector<std::int32_t> ivc_out_vc_;
  std::vector<const RouteCandidate*> ivc_routes_;
  std::vector<std::int32_t> ivc_routes_len_;
  std::vector<RouteCandidate> ivc_eject_;  ///< per slot: ejection candidate
  /// Per slot: rows that are not table arena ranges (live, UGAL splice).
  std::vector<std::vector<RouteCandidate>> ivc_live_;

  // Output-VC state (per slot) and rotating allocator priorities.
  std::vector<std::uint8_t> ovc_busy_;
  std::vector<std::int32_t> ovc_credits_;
  std::vector<std::int32_t> va_rr_;      ///< per slot
  std::vector<std::int32_t> sa_in_rr_;   ///< per flat port
  std::vector<std::int32_t> sa_out_rr_;  ///< per flat port

  // Allocator work, so allocate() visits only the slots a phase can act on
  // instead of re-scanning every (port, vc) each cycle. Router r's route and
  // VA lists sit in its own slot range, [first slot, + pending count): a
  // slot is route-pending from when it is idle and holds a flit until its
  // route is computed, and VA-pending while in kVcAlloc. Route computation
  // and VC requests are per slot and order-free (requests are sorted before
  // arbitration), and round-robin pointers only move on grants, so the
  // lists and counters decide exactly what a full sweep decides.
  std::vector<std::uint32_t> route_list_;    ///< per router: slots to route
  std::vector<std::int32_t> route_pending_;  ///< per router: route list length
  std::vector<std::uint32_t> va_list_;       ///< per router: slots in kVcAlloc
  std::vector<std::int32_t> va_pending_;     ///< per router: VA list length
  std::vector<std::int32_t> active_ivcs_;    ///< per router: slots in kActive
  std::vector<std::uint8_t> port_active_;    ///< per flat port: kActive slots

  // Network interfaces (per tile * local port).
  std::vector<PktRing> ni_queue_;
  std::vector<std::int32_t> ni_front_flit_;
  std::vector<std::int32_t> ni_open_vc_;
  std::vector<std::int32_t> ni_next_vc_;

  // Worklist.
  std::vector<long long> work_;      ///< per router: buffered + NI flits
  std::vector<long long> buffered_;  ///< per router: flits in input VCs
  std::vector<std::uint8_t> queued_;
  std::vector<int> active_;
  long long total_flits_ = 0;    ///< NI queues + buffers + wheel
  long long total_credits_ = 0;  ///< credits on the wheel

  // Per-packet metadata (filled by pregenerate; index = packet id).
  std::vector<Cycle> pk_create_;
  std::vector<std::int32_t> pk_src_;
  std::vector<std::int32_t> pk_dest_;
  std::vector<std::int32_t> pk_port_;        ///< source endpoint port
  std::vector<std::int32_t> pk_eject_port_;  ///< -1 = spread by packet id
  std::vector<std::int32_t> pk_hops_;
  /// UGAL Valiant intermediate per packet; -1 = minimal / already reached.
  /// Equivalent to the reference Flit::via field: the head flit exists in
  /// exactly one buffer at a time, so one per-packet slot is the same state.
  std::vector<std::int32_t> pk_via_;
  std::vector<std::uint8_t> pk_measured_;
  std::vector<std::uint8_t> pk_done_;
  long long measured_created_ = 0;
  std::size_t sched_ptr_ = 0;

  // Per-cycle scratch.
  std::vector<EjectRec> eject_buf_;
  std::vector<std::pair<int, int>> va_requests_;
  std::vector<int> sa_request_port_;
  std::vector<int> sa_request_vc_;
  std::vector<int> sa_req_in_;   ///< input ports that nominated this cycle
  std::vector<int> sa_req_ops_;  ///< distinct requested out ports, ascending
  /// Live routing's output buffer, routing_->max_candidates() long.
  std::vector<RouteCandidate> route_scratch_;
};

}  // namespace shg::sim
