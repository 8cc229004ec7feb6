#include "shg/sim/soa_network.hpp"

#include <algorithm>
#include <limits>

#include "shg/common/prng.hpp"
#include "shg/sim/concentration.hpp"
#include "shg/sim/stats.hpp"

namespace shg::sim {

namespace {
// Local output ports model the tile's endpoints as an infinite sink (the
// reference router's kSinkCredits).
constexpr int kSinkCredits = std::numeric_limits<int>::max() / 2;
}  // namespace

void SoaEngine::PktRing::push(std::int32_t id) {
  if (count == buf.size()) {
    const std::size_t old = buf.size();
    std::vector<std::int32_t> grown(old == 0 ? 8 : old * 2);
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = buf[(head + i) % old];
    }
    buf = std::move(grown);
    head = 0;
  }
  std::size_t tail = head + count;
  if (tail >= buf.size()) tail -= buf.size();
  buf[tail] = id;
  ++count;
}

SoaEngine::SoaEngine(const topo::Topology& topo,
                     const std::vector<int>& link_latencies,
                     const SimConfig& config, const TrafficPattern& pattern,
                     int endpoints_per_tile, const RoutingFunction* routing,
                     const RouteTable* table, InjectionProcess* process)
    : config_(config),
      pattern_(&pattern),
      routing_(routing),
      table_(table),
      process_(process) {
  config_.validate();
  SHG_REQUIRE(routing != nullptr || table != nullptr,
              "SoA engine needs a routing function or a route table");
  SHG_REQUIRE(process != nullptr, "SoA engine needs an injection process");
  ugal_mode_ = effective_routing_policy(config_) == RoutingPolicy::kUgal;
  if (ugal_mode_) {
    ugal_info_ =
        table_ != nullptr ? table_->ugal_info() : routing_->ugal_info();
    SHG_REQUIRE(ugal_info_ != nullptr,
                "UGAL routing policy needs a UGAL routing function or a "
                "route table built from one");
  }
  SHG_REQUIRE(endpoints_per_tile >= 1, "need at least one endpoint per tile");
  num_routers_ = topo.graph().num_nodes();
  local_ports_ = endpoints_per_tile;
  vcs_ = config_.num_vcs;
  depth_ = config_.buffer_depth_flits;
  pkt_flits_ = config_.packet_size_flits;
  delay_ = config_.router_delay_cycles;
  build_fabric(topo, link_latencies);
  pregenerate(topo);
}

void SoaEngine::build_fabric(const topo::Topology& topo,
                             const std::vector<int>& link_latencies) {
  const auto& g = topo.graph();
  SHG_REQUIRE(static_cast<int>(link_latencies.size()) == g.num_edges(),
              "need one latency per link");
  const std::size_t nr = static_cast<std::size_t>(num_routers_);

  // Port layout: network ports first (one per neighbor, adjacency order —
  // the convention shared with sim::Network), then the endpoint ports.
  net_ports_.resize(nr);
  port_base_.resize(nr + 1);
  std::size_t ports = 0;
  for (int r = 0; r < num_routers_; ++r) {
    net_ports_[static_cast<std::size_t>(r)] = g.degree(r);
    port_base_[static_cast<std::size_t>(r)] = ports;
    const int p = g.degree(r) + local_ports_;
    max_ports_ = std::max(max_ports_, p);
    ports += static_cast<std::size_t>(p);
  }
  port_base_[nr] = ports;
  const std::size_t slots = ports * static_cast<std::size_t>(vcs_);
  SHG_REQUIRE(slots <= std::numeric_limits<std::uint32_t>::max(),
              "fabric too large for 32-bit input-VC slot ids");

  // Each edge joins one network port at either end; a port's link names the
  // port at the far end, so a flit sent out of a port lands in the peer's
  // input VCs and a credit returned from it lands on the peer's output VCs.
  std::vector<std::size_t> edge_port(2 *
                                     static_cast<std::size_t>(g.num_edges()));
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto& nbrs = g.neighbors(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const bool is_u = g.edge(nbrs[i].edge).u == u;
      edge_port[2 * static_cast<std::size_t>(nbrs[i].edge) + (is_u ? 0 : 1)] =
          port_base_[static_cast<std::size_t>(u)] + i;
    }
  }
  links_.resize(ports);
  int max_latency = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    const int lat = link_latencies[static_cast<std::size_t>(e)];
    SHG_REQUIRE(lat >= 1, "every link has at least one cycle of latency");
    max_latency = std::max(max_latency, lat);
    const std::size_t at_u = edge_port[2 * static_cast<std::size_t>(e)];
    const std::size_t at_v = edge_port[2 * static_cast<std::size_t>(e) + 1];
    links_[at_u] = {static_cast<std::uint32_t>(at_v), edge.v, lat};
    links_[at_v] = {static_cast<std::uint32_t>(at_u), edge.u, lat};
  }
  // Entries land 1..max_latency cycles after they are sent, so that many
  // buckets beyond the current one never wrap onto it.
  wheel_.resize(static_cast<std::size_t>(max_latency) + 1);

  // Buffers and allocation state.
  buf_.resize(slots * static_cast<std::size_t>(depth_));
  buf_head_.assign(slots, 0);
  buf_count_.assign(slots, 0);
  ivc_state_.assign(slots, kIdle);
  ivc_out_port_.assign(slots, -1);
  ivc_out_vc_.assign(slots, -1);
  ivc_routes_.assign(slots, nullptr);
  ivc_routes_len_.assign(slots, 0);
  ivc_eject_.assign(slots, RouteCandidate{});
  // Per-slot candidate storage for rows that are not a table arena range:
  // live-routing rows and UGAL's spliced via-leg rows. A minimal-policy run
  // from a table has neither, and skips the per-slot vectors.
  if (table_ == nullptr || ugal_mode_) ivc_live_.resize(slots);
  if (table_ == nullptr) route_scratch_.resize(routing_->max_candidates());
  ovc_busy_.assign(slots, 0);
  ovc_credits_.resize(slots);
  for (int r = 0; r < num_routers_; ++r) {
    const int np = net_ports_[static_cast<std::size_t>(r)];
    for (int p = 0; p < np + local_ports_; ++p) {
      for (int v = 0; v < vcs_; ++v) {
        ovc_credits_[slot(r, p, v)] = p >= np ? kSinkCredits : depth_;
      }
    }
  }
  va_rr_.assign(slots, 0);
  sa_in_rr_.assign(ports, 0);
  sa_out_rr_.assign(ports, 0);
  sa_request_port_.assign(static_cast<std::size_t>(max_ports_), -1);
  sa_request_vc_.assign(static_cast<std::size_t>(max_ports_), -1);
  route_list_.resize(slots);
  route_pending_.assign(nr, 0);
  va_list_.resize(slots);
  va_pending_.assign(nr, 0);
  active_ivcs_.assign(nr, 0);
  port_active_.assign(ports, 0);

  const std::size_t queues = nr * static_cast<std::size_t>(local_ports_);
  ni_queue_.resize(queues);
  ni_front_flit_.assign(queues, 0);
  ni_open_vc_.assign(queues, -1);
  ni_next_vc_.assign(queues, 0);

  work_.assign(nr, 0);
  buffered_.assign(nr, 0);
  queued_.assign(nr, 0);
}

void SoaEngine::pregenerate(const topo::Topology& topo) {
  // Replays the reference generation loop exactly: same PRNG, same draw
  // order (cycle -> tile -> port, inject draw then destination draw), same
  // fixed-point skip, same packet ids. No draw depends on network state and
  // source queues are unbounded, so the schedule is a pure function of the
  // seed — which is what makes quiescence fast-forward exact.
  Prng rng(config_.seed);
  process_->reset();
  const Cycle generation_end = config_.warmup_cycles + config_.measure_cycles;
  const double packet_prob =
      config_.injection_rate / static_cast<double>(config_.packet_size_flits);
  const Concentration conc = Concentration::make(topo.rows(), topo.cols(),
                                                 config_.concentration);
  const bool concentrated = config_.concentration > 1;

  const std::size_t hint = packet_reserve_hint(
      packet_prob, generation_end, num_routers_, local_ports_);
  pk_create_.reserve(hint);
  pk_src_.reserve(hint);
  pk_dest_.reserve(hint);
  pk_port_.reserve(hint);
  pk_eject_port_.reserve(hint);
  pk_measured_.reserve(hint);

  for (Cycle t = 0; t < generation_end; ++t) {
    for (int tile = 0; tile < num_routers_; ++tile) {
      for (int port = 0; port < local_ports_; ++port) {
        const int source = tile * local_ports_ + port;
        if (!process_->inject(source, rng)) continue;
        int dest_tile;
        int eject_port = -1;
        if (concentrated) {
          const int src_terminal = conc.terminal(tile, port);
          const int dest_terminal = pattern_->dest(src_terminal, rng);
          if (dest_terminal == src_terminal) continue;
          dest_tile = conc.tile_of(dest_terminal);
          eject_port = conc.port_of(dest_terminal);
        } else {
          dest_tile = pattern_->dest(tile, rng);
          if (dest_tile == tile) continue;  // fixed point of a permutation
        }
        const bool measured = t >= config_.warmup_cycles;
        pk_create_.push_back(t);
        pk_src_.push_back(tile);
        pk_dest_.push_back(dest_tile);
        pk_port_.push_back(port);
        pk_eject_port_.push_back(eject_port);
        pk_measured_.push_back(measured ? 1 : 0);
        if (measured) ++measured_created_;
      }
    }
  }
  pk_hops_.assign(pk_create_.size(), 0);
  pk_via_.assign(pk_create_.size(), -1);
  pk_done_.assign(pk_create_.size(), 0);
}

void SoaEngine::push_buf(std::size_t s, Cycle ready, std::int32_t pkt,
                         std::uint8_t flags) {
  SHG_ASSERT(buf_count_[s] < depth_, "input VC ring overflow");
  std::size_t idx = static_cast<std::size_t>(buf_head_[s]) + buf_count_[s];
  if (idx >= static_cast<std::size_t>(depth_)) {
    idx -= static_cast<std::size_t>(depth_);
  }
  buf_[s * static_cast<std::size_t>(depth_) + idx] = {ready, pkt, flags};
  ++buf_count_[s];
}

void SoaEngine::land(Cycle now) {
  wheel_now_ = static_cast<std::size_t>(now) % wheel_.size();
  Bucket& arrivals = wheel_[wheel_now_];
  for (const FlitArrival& a : arrivals.flits) {
    const std::size_t s = a.slot;
    const std::size_t r = static_cast<std::size_t>(a.router);
    SHG_ASSERT(buf_count_[s] < depth_,
               "credit protocol violated: buffer overflow");
    // A flit landing in an empty idle slot is a fresh head awaiting route
    // computation (state only returns to idle after a tail departs).
    if (buf_count_[s] == 0 && ivc_state_[s] == kIdle) route_later(a.router, s);
    push_buf(s, now + delay_, a.pkt, a.flags);
    ++buffered_[r];
    ++work_[r];
    activate(a.router);
  }
  for (const std::uint32_t o : arrivals.credits) ++ovc_credits_[o];
  total_credits_ -= static_cast<long long>(arrivals.credits.size());
  arrivals.flits.clear();
  arrivals.credits.clear();
}

void SoaEngine::ni_inject(int r, Cycle now) {
  const std::size_t pbase = port_base_[static_cast<std::size_t>(r)];
  const int net = net_ports_[static_cast<std::size_t>(r)];
  for (int l = 0; l < local_ports_; ++l) {
    const std::size_t q =
        static_cast<std::size_t>(r) * static_cast<std::size_t>(local_ports_) +
        static_cast<std::size_t>(l);
    PktRing& ring = ni_queue_[q];
    if (ring.count == 0) continue;
    const std::int32_t pkt = ring.front();
    const int fi = ni_front_flit_[q];
    const bool head = fi == 0;
    const bool tail = fi == pkt_flits_ - 1;
    const std::size_t pidx = pbase + static_cast<std::size_t>(net + l);
    int chosen;
    if (head) {
      SHG_ASSERT(ni_open_vc_[q] < 0, "head flit while another packet is open");
      // Pick an input VC with space, round-robin (the routing constraints
      // bind at the router's output, not at the local input buffer).
      chosen = -1;
      for (int off = 0; off < vcs_; ++off) {
        const int v = (ni_next_vc_[q] + off) % vcs_;
        if (buf_count_[pidx * static_cast<std::size_t>(vcs_) +
                       static_cast<std::size_t>(v)] < depth_) {
          chosen = v;
          break;
        }
      }
      if (chosen < 0) continue;  // all local VCs full; retry next cycle
      ni_next_vc_[q] = (chosen + 1) % vcs_;
      if (!tail) ni_open_vc_[q] = chosen;
    } else {
      // Body/tail flit: must continue on the head's VC.
      SHG_ASSERT(ni_open_vc_[q] >= 0, "body flit without an open packet");
      chosen = ni_open_vc_[q];
      if (buf_count_[pidx * static_cast<std::size_t>(vcs_) +
                     static_cast<std::size_t>(chosen)] >= depth_) {
        continue;
      }
      if (tail) ni_open_vc_[q] = -1;
    }
    std::uint8_t flags = 0;
    if (head) flags |= kHead;
    if (tail) flags |= kTail;
    const std::size_t s = pidx * static_cast<std::size_t>(vcs_) +
                          static_cast<std::size_t>(chosen);
    if (buf_count_[s] == 0 && ivc_state_[s] == kIdle) route_later(r, s);
    push_buf(s, now + delay_, pkt, flags);
    ++buffered_[static_cast<std::size_t>(r)];
    if (fi + 1 == pkt_flits_) {
      ring.pop();
      ni_front_flit_[q] = 0;
    } else {
      ni_front_flit_[q] = fi + 1;
    }
  }
}

void SoaEngine::compute_route(int r, std::size_t s) {
  const std::size_t pbase = port_base_[static_cast<std::size_t>(r)];
  const std::size_t local = s - pbase * static_cast<std::size_t>(vcs_);
  const int port = static_cast<int>(local / static_cast<std::size_t>(vcs_));
  const int vc = static_cast<int>(local % static_cast<std::size_t>(vcs_));
  const BufFlit& head = buf_[s * static_cast<std::size_t>(depth_) +
                             static_cast<std::size_t>(buf_head_[s])];
  SHG_ASSERT((head.flags & kHead) != 0,
             "route computation requires a head flit");
  const int net = net_ports_[static_cast<std::size_t>(r)];
  const int dest = pk_dest_[static_cast<std::size_t>(head.pkt)];
  if (dest == r) {
    // Ejection: the destination terminal's port when the packet carries one
    // (concentrated fabrics), otherwise pick the endpoint port by packet id.
    const int ep = pk_eject_port_[static_cast<std::size_t>(head.pkt)];
    SHG_ASSERT(ep < local_ports_, "eject port beyond the tile's endpoints");
    const int local = net + (ep >= 0 ? ep : head.pkt % local_ports_);
    ivc_eject_[s] = RouteCandidate{local, 0, vcs_};
    ivc_routes_[s] = &ivc_eject_[s];
    ivc_routes_len_[s] = 1;
  } else {
    // Local input ports report in_port == -1 AND in_vc == -1 (see the
    // reference Router::compute_route for the deadlock this avoids).
    const bool from_network = port < net;
    const int in_port = from_network ? port : -1;
    const int in_vc = from_network ? vc : -1;
    if (ugal_mode_) {
      compute_route_ugal(r, s, in_port, in_vc, head.pkt, dest);
    } else {
      set_row(s, r, in_port, in_vc, dest);
    }
    SHG_ASSERT(ivc_routes_len_[s] > 0, "routing returned no candidates");
  }
  ivc_state_[s] = kVcAlloc;
  std::int32_t& waiting = va_pending_[static_cast<std::size_t>(r)];
  va_list_[pbase * static_cast<std::size_t>(vcs_) +
           static_cast<std::size_t>(waiting++)] = static_cast<std::uint32_t>(s);
}

int SoaEngine::first_port(int r, int to) {
  return row(r, -1, -1, to).front().out_port;
}

int SoaEngine::adaptive_occupancy(int r, int port) const {
  const std::size_t base = slot(r, port, 0);
  int occ = 0;
  for (int v = kUgalEscapeVcs; v < vcs_; ++v) {
    occ += depth_ - ovc_credits_[base + static_cast<std::size_t>(v)];
  }
  return occ;
}

void SoaEngine::append_band(int r, int in_port, int in_vc, int to,
                            bool adaptive,
                            std::vector<RouteCandidate>& out) {
  for (const RouteCandidate& cand : row(r, in_port, in_vc, to)) {
    if ((cand.vc_begin >= kUgalEscapeVcs) == adaptive) out.push_back(cand);
  }
}

void SoaEngine::compute_route_ugal(int r, std::size_t s, int in_port,
                                   int in_vc, std::int32_t pkt, int dest) {
  // Mirrors Router::compute_route_ugal decision-for-decision; the occupancy
  // reads touch only this router's output credit counters, which this
  // cycle's arrivals settled before allocate(r) in both engines (phase
  // commutation across routers), so the choice is engine-independent.
  const bool on_escape =
      in_port >= 0 && in_vc >= 0 && in_vc < kUgalEscapeVcs;
  std::int32_t& via = pk_via_[static_cast<std::size_t>(pkt)];
  if (!on_escape) {
    if (in_port < 0 && via < 0) {
      const std::int32_t drawn = ugal_info_->via_of(r, dest);
      if (drawn >= 0) {
        const int occ_min = adaptive_occupancy(r, first_port(r, dest));
        const int occ_nm = adaptive_occupancy(r, first_port(r, drawn));
        const long long cost_min =
            static_cast<long long>(occ_min) *
            ugal_info_->hops_between(r, dest);
        const long long cost_nm =
            static_cast<long long>(occ_nm) *
                (ugal_info_->hops_between(r, drawn) +
                 ugal_info_->hops_between(drawn, dest)) +
            config_.ugal_bias_flits;
        if (cost_nm < cost_min) {
          via = drawn;
          ++ugal_nonminimal_;
        }
      }
    }
    if (via == r) via = -1;  // intermediate reached; route to dest now
    if (via >= 0) {
      // Non-minimal leg: adaptive candidates steer toward the intermediate,
      // escape candidates keep targeting the final destination.
      std::vector<RouteCandidate>& spliced = ivc_live_[s];
      spliced.clear();
      append_band(r, in_port, in_vc, via, /*adaptive=*/true, spliced);
      append_band(r, in_port, in_vc, dest, /*adaptive=*/false, spliced);
      set_routes(s, spliced);
      return;
    }
  }
  // Escape state or minimal/post-via adaptive state: the plain row toward
  // the destination.
  set_row(s, r, in_port, in_vc, dest);
}

void SoaEngine::allocate(int r, Cycle now) {
  // Empty router fast path — identical to the reference (the round-robin
  // pointers only advance on grants, so skipping is bit-identical).
  if (buffered_[static_cast<std::size_t>(r)] == 0) return;
  const std::size_t pbase = port_base_[static_cast<std::size_t>(r)];
  const int net = net_ports_[static_cast<std::size_t>(r)];
  const int ports = net + local_ports_;
  const int vcs = vcs_;
  const std::size_t sbase = pbase * static_cast<std::size_t>(vcs);

  // --- Route computation for fresh heads --------------------------------
  std::int32_t& routes_due = route_pending_[static_cast<std::size_t>(r)];
  for (std::int32_t k = 0; k < routes_due; ++k) {
    compute_route(r, route_list_[sbase + static_cast<std::size_t>(k)]);
  }
  routes_due = 0;

  // --- VC allocation ------------------------------------------------------
  // Each waiting input VC requests its most-preferred candidate with a free
  // output VC; requests are grouped per output VC and granted round-robin.
  std::int32_t& va_due = va_pending_[static_cast<std::size_t>(r)];
  if (va_due > 0) {
    std::uint32_t* waiting = &va_list_[sbase];
    va_requests_.clear();
    for (std::int32_t k = 0; k < va_due; ++k) {
      const std::size_t s = waiting[k];
      int request = -1;
      const RouteCandidate* cands = ivc_routes_[s];
      const int len = ivc_routes_len_[s];
      for (int ci = 0; ci < len; ++ci) {
        const RouteCandidate& cand = cands[ci];
        // UGAL mode: adaptive-band candidates additionally require a
        // credit, so a stuck head can always fall through to the escape
        // candidate instead of camping on a starved adaptive VC.
        const bool needs_credit =
            ugal_mode_ && cand.vc_begin >= kUgalEscapeVcs;
        for (int ov = cand.vc_begin; ov < cand.vc_end; ++ov) {
          const std::size_t o =
              sbase + static_cast<std::size_t>(cand.out_port * vcs + ov);
          if (!ovc_busy_[o] && (!needs_credit || ovc_credits_[o] > 0)) {
            request = cand.out_port * vcs + ov;
            break;
          }
        }
        if (request >= 0) break;
      }
      if (request >= 0) {
        va_requests_.emplace_back(request, static_cast<int>(s - sbase));
      }
    }
    std::sort(va_requests_.begin(), va_requests_.end());
    for (std::size_t i = 0; i < va_requests_.size();) {
      const int out_key = va_requests_[i].first;
      std::size_t j = i;
      while (j < va_requests_.size() && va_requests_[j].first == out_key) ++j;
      // Round-robin among requesters [i, j).
      const int rr = va_rr_[sbase + static_cast<std::size_t>(out_key)];
      std::size_t winner = i;
      int best = std::numeric_limits<int>::max();
      for (std::size_t k = i; k < j; ++k) {
        const int in_key = va_requests_[k].second;
        const int rank = (in_key - rr + ports * vcs) % (ports * vcs);
        if (rank < best) {
          best = rank;
          winner = k;
        }
      }
      const int in_key = va_requests_[winner].second;
      const std::size_t s = sbase + static_cast<std::size_t>(in_key);
      ivc_state_[s] = kActive;
      ivc_out_port_[s] = out_key / vcs;
      ivc_out_vc_[s] = out_key % vcs;
      ovc_busy_[sbase + static_cast<std::size_t>(out_key)] = 1;
      va_rr_[sbase + static_cast<std::size_t>(out_key)] =
          (in_key + 1) % (ports * vcs);
      ++active_ivcs_[static_cast<std::size_t>(r)];
      ++port_active_[pbase + static_cast<std::size_t>(in_key / vcs)];
      i = j;
    }
    // Granted slots leave the VA list; the rest wait for the next cycle.
    if (!va_requests_.empty()) {
      std::int32_t kept = 0;
      for (std::int32_t k = 0; k < va_due; ++k) {
        if (ivc_state_[waiting[k]] == kVcAlloc) waiting[kept++] = waiting[k];
      }
      va_due = kept;
    }
  }

  // --- Switch allocation ---------------------------------------------------
  // Input-first: every input port with an active VC nominates one ready VC
  // (round-robin), then every requested output port grants one input port
  // (round-robin). Ports without active VCs cannot nominate and outputs
  // without requests grant nothing, so restricting both scans to the
  // occupied entries decides identically to the reference full sweep.
  if (active_ivcs_[static_cast<std::size_t>(r)] == 0) return;
  sa_req_in_.clear();
  sa_req_ops_.clear();
  for (int p = 0; p < ports; ++p) {
    if (port_active_[pbase + static_cast<std::size_t>(p)] == 0) continue;
    const int start = sa_in_rr_[pbase + static_cast<std::size_t>(p)];
    for (int off = 0; off < vcs; ++off) {
      const int v = (start + off) % vcs;
      const std::size_t s = sbase + static_cast<std::size_t>(p * vcs + v);
      if (ivc_state_[s] != kActive || buf_count_[s] == 0) continue;
      const BufFlit& front = buf_[s * static_cast<std::size_t>(depth_) +
                                  static_cast<std::size_t>(buf_head_[s])];
      const std::size_t os =
          sbase +
          static_cast<std::size_t>(ivc_out_port_[s] * vcs + ivc_out_vc_[s]);
      if (front.ready <= now && ovc_credits_[os] > 0) {
        const int op = ivc_out_port_[s];
        sa_request_port_[static_cast<std::size_t>(p)] = op;
        sa_request_vc_[static_cast<std::size_t>(p)] = v;
        sa_req_in_.push_back(p);
        const auto it =
            std::lower_bound(sa_req_ops_.begin(), sa_req_ops_.end(), op);
        if (it == sa_req_ops_.end() || *it != op) sa_req_ops_.insert(it, op);
        break;
      }
    }
  }
  // Grants processed in ascending output-port order, matching the reference
  // output sweep (this fixes the within-router ejection order).
  for (const int op : sa_req_ops_) {
    int winner = -1;
    int best = std::numeric_limits<int>::max();
    const int rr = sa_out_rr_[pbase + static_cast<std::size_t>(op)];
    for (const int p : sa_req_in_) {
      if (sa_request_port_[static_cast<std::size_t>(p)] != op) continue;
      const int rank = (p - rr + ports) % ports;
      if (rank < best) {
        best = rank;
        winner = p;
      }
    }
    if (winner < 0) continue;
    sa_out_rr_[pbase + static_cast<std::size_t>(op)] = (winner + 1) % ports;
    sa_in_rr_[pbase + static_cast<std::size_t>(winner)] =
        (sa_request_vc_[static_cast<std::size_t>(winner)] + 1) % vcs;

    // --- Switch traversal --------------------------------------------------
    const int iv = sa_request_vc_[static_cast<std::size_t>(winner)];
    const std::size_t s = sbase + static_cast<std::size_t>(winner * vcs + iv);
    const BufFlit flit = buf_[s * static_cast<std::size_t>(depth_) +
                              static_cast<std::size_t>(buf_head_[s])];
    buf_head_[s] = static_cast<std::uint16_t>(
        buf_head_[s] + 1 == depth_ ? 0 : buf_head_[s] + 1);
    --buf_count_[s];
    --buffered_[static_cast<std::size_t>(r)];
    const int out_port = ivc_out_port_[s];
    const int out_v = ivc_out_vc_[s];
    const std::size_t os = sbase + static_cast<std::size_t>(out_port * vcs +
                                                            out_v);
    // Hop counting: the reference stamps every flit, but only the tail's
    // value is read at ejection, and in wormhole switching the tail crosses
    // exactly the routers the head crossed — so counting head traversals
    // into the per-packet array is equivalent.
    if (flit.flags & kHead) ++pk_hops_[static_cast<std::size_t>(flit.pkt)];
    --work_[static_cast<std::size_t>(r)];
    if (out_port >= net) {
      // Ejection; the endpoint sink consumes immediately (credit net zero).
      eject_buf_.push_back(EjectRec{r * local_ports_ + out_port - net,
                                    flit.pkt, flit.flags});
      --total_flits_;
    } else {
      --ovc_credits_[os];
      const PortLink& link = links_[pbase + static_cast<std::size_t>(out_port)];
      bucket_after(link.latency)
          .flits.push_back(FlitArrival{
              link.peer * static_cast<std::uint32_t>(vcs) +
                  static_cast<std::uint32_t>(out_v),
              link.router, flit.pkt, flit.flags});
    }
    // Return the freed buffer slot upstream (network inputs only; the NI
    // observes local buffer occupancy directly).
    if (winner < net) {
      const PortLink& link = links_[pbase + static_cast<std::size_t>(winner)];
      bucket_after(link.latency)
          .credits.push_back(link.peer * static_cast<std::uint32_t>(vcs) +
                             static_cast<std::uint32_t>(iv));
      ++total_credits_;
    }
    if (flit.flags & kTail) {
      ovc_busy_[os] = 0;
      ivc_state_[s] = kIdle;
      ivc_out_port_[s] = -1;
      ivc_out_vc_[s] = -1;
      ivc_routes_[s] = nullptr;
      ivc_routes_len_[s] = 0;
      --active_ivcs_[static_cast<std::size_t>(r)];
      --port_active_[pbase + static_cast<std::size_t>(winner)];
      // The next packet's head may already be buffered behind the departed
      // tail; it becomes route-pending now that the slot is idle again.
      if (buf_count_[s] > 0) route_later(r, s);
    }
  }
}

SimResult SoaEngine::run() {
  const Cycle generation_end = config_.warmup_cycles + config_.measure_cycles;
  const Cycle hard_end = generation_end + config_.drain_cycles;
  const std::size_t num_packets = pk_create_.size();

  long long measured_ejected = 0;
  long long flits_ejected_in_window = 0;
  Distribution latencies(config_.latency_sample_cap);
  double hops_sum = 0.0;
  std::vector<double> source_latency_sum(
      static_cast<std::size_t>(num_routers_), 0.0);
  std::vector<long long> source_packets(static_cast<std::size_t>(num_routers_),
                                        0);
  Cycle last_ejection = 0;

  SimResult result;
  result.offered_rate = config_.injection_rate;

  Cycle now = 0;
  for (; now < hard_end; ++now) {
    // --- Quiescence fast-forward ------------------------------------------
    // With no flit anywhere and no credit on the wheel, every cycle until
    // the next scheduled injection is a provable no-op (allocators skip
    // empty routers bit-identically, round-robin state is frozen, and no
    // termination check can fire before generation_end — scheduled
    // injections all precede it). Jump straight to the next event.
    if (total_flits_ == 0 && total_credits_ == 0) {
      if (sched_ptr_ < num_packets) {
        if (pk_create_[sched_ptr_] > now) now = pk_create_[sched_ptr_];
      } else {
        // Nothing will ever move again: the reference loop idles to its
        // first post-generation termination check and breaks there.
        if (now < generation_end) now = generation_end;
        break;
      }
    }

    // --- Packet generation (pre-drawn schedule) ---------------------------
    while (sched_ptr_ < num_packets && pk_create_[sched_ptr_] == now) {
      const std::int32_t pkt = static_cast<std::int32_t>(sched_ptr_++);
      const int tile = pk_src_[static_cast<std::size_t>(pkt)];
      ni_queue_[static_cast<std::size_t>(tile) *
                    static_cast<std::size_t>(local_ports_) +
                static_cast<std::size_t>(
                    pk_port_[static_cast<std::size_t>(pkt)])]
          .push(pkt);
      work_[static_cast<std::size_t>(tile)] += pkt_flits_;
      total_flits_ += pkt_flits_;
      activate(tile);
    }

    // --- Arrivals, then one network cycle over the active routers ---------
    // Everything due this cycle lands before any router runs. Phases commute
    // across routers (wheel entries land at now + latency >= now + 1, so
    // nothing sent this cycle is visible this cycle), which lets
    // inject/allocate fuse per router; no router joins the list mid-pass.
    land(now);
    for (const int r : active_) {
      ni_inject(r, now);
      allocate(r, now);
    }

    // --- Harvest ejected flits (reference order: tile-ascending) ----------
    // A router runs once per cycle and grants its ejection ports in
    // ascending order, so the reference's stable tile order is the order of
    // the (unique) endpoint keys; std::sort needs no scratch buffer.
    if (!eject_buf_.empty()) {
      std::sort(eject_buf_.begin(), eject_buf_.end(),
                [](const EjectRec& a, const EjectRec& b) {
                  return a.endpoint < b.endpoint;
                });
      for (const EjectRec& e : eject_buf_) {
        last_ejection = now;
        if (now >= config_.warmup_cycles && now < generation_end) {
          ++flits_ejected_in_window;
        }
        if (!(e.flags & kTail)) continue;
        const std::size_t pkt = static_cast<std::size_t>(e.pkt);
        SHG_ASSERT(!pk_done_[pkt], "packet ejected twice");
        pk_done_[pkt] = 1;
        if (pk_measured_[pkt]) {
          ++measured_ejected;
          const double latency =
              static_cast<double>(now - pk_create_[pkt] + 1);
          latencies.add(latency);
          hops_sum += pk_hops_[pkt];
          source_latency_sum[static_cast<std::size_t>(pk_src_[pkt])] +=
              latency;
          ++source_packets[static_cast<std::size_t>(pk_src_[pkt])];
        }
      }
      eject_buf_.clear();
    }

    // --- Worklist compaction ----------------------------------------------
    std::size_t w = 0;
    for (std::size_t i = 0; i < active_.size(); ++i) {
      const int r = active_[i];
      if (work_[static_cast<std::size_t>(r)] > 0) {
        active_[w++] = r;
      } else {
        queued_[static_cast<std::size_t>(r)] = 0;
      }
    }
    active_.resize(w);

    // --- Termination checks -----------------------------------------------
    if (now >= generation_end) {
      if (measured_ejected == measured_created_) break;
      // Deadlock/livelock watchdog: traffic in flight but nothing ejects.
      if (now - last_ejection > 20000 && total_flits_ > 0) {
        break;
      }
    }
  }

  result.cycles_run = now;
  result.measured_packets = measured_ejected;
  result.drained = measured_ejected == measured_created_;
  result.accepted_rate =
      static_cast<double>(flits_ejected_in_window) /
      (static_cast<double>(config_.measure_cycles) *
       static_cast<double>(num_routers_) * static_cast<double>(local_ports_));
  if (measured_ejected > 0) {
    result.avg_packet_latency = latencies.mean();
    result.max_packet_latency = latencies.max();
    result.p50_packet_latency = latencies.percentile(0.50);
    result.p95_packet_latency = latencies.percentile(0.95);
    result.p99_packet_latency = latencies.percentile(0.99);
    result.avg_hops = hops_sum / static_cast<double>(measured_ejected);
    std::vector<double> per_source;
    for (std::size_t s = 0; s < source_packets.size(); ++s) {
      if (source_packets[s] > 0) {
        per_source.push_back(source_latency_sum[s] /
                             static_cast<double>(source_packets[s]));
      }
    }
    if (!per_source.empty()) {
      result.fairness = fairness_ratio(per_source);
    }
  }
  return result;
}

}  // namespace shg::sim
