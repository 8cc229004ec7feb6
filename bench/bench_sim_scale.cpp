// Simulator raw-speed benchmark: tracks the SoA hot-loop overhaul (flat
// state slabs, active-router worklist, quiescence fast-forward) against the
// reference AoS engine across fabric sizes and workloads.
//
// Grid: {10x10, 32x32, 64x64} meshes x {uniform, hotspot, onoff}. The two
// small tiers run BOTH engines (Simulator::run and run_reference) from one
// shared route table per tier and report flits/sec each. The table build
// has its own timer (table_build_s), outside the run timers; every row also
// reports table_build_s + the SoA run as its end-to-end time. 64x64 runs the SoA engine only with live routing (the
// all-pairs route table is the scaling wall there — building it would
// dwarf the simulation), proving the size-up the overhaul exists for. A
// concentrated 16x16 c=4 row (same 1024 terminals as the 32x32 mesh on a
// quarter of the routers) tracks the concentration path.
//
// A routing-policy section (schema v3) saturates 32x32 fabrics (mesh and
// torus) under the two adversarial workloads (hotspot, transpose) with
// minimal and UGAL routing at identical VC/buffer resources and compares
// the accepted load. The per-row ratios tell the expected story: UGAL wins
// where minimal routing lacks path diversity (torus DOR under transpose,
// mesh hotspot trees) and can lose past deep saturation where its local
// occupancy signal goes stale — all four rows ship in the JSON so the
// trade-off stays visible.
//
// Acceptance gates (every one evaluated and every failure printed; non-zero
// exit so CI can gate on the smoke run):
//  * bit-identity at 10x10 — every SimResult field of the SoA engine must
//    equal the AoS engine exactly, for all three workloads;
//  * >= 3x SoA-over-AoS flits/sec at 32x32 uniform;
//  * the 64x64 tiers must drain (the scale target actually completes);
//  * UGAL sustains >= 1.5x the minimal-routing accepted load at saturation
//    on at least one 32x32 adversarial row (adaptivity must pay off).
//
// Output: a human-readable table on stdout and machine-readable JSON
// (default BENCH_sim.json; see --out). `--smoke` shrinks the simulated
// cycle counts for CI — the speedup ratio stays meaningful, absolute
// flits/sec get noisier.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gates.hpp"
#include "shg/sim/route_table.hpp"
#include "shg/sim/simulator.hpp"
#include "shg/sim/traffic_spec.hpp"
#include "shg/topo/generators.hpp"

namespace {

using namespace shg;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<int> unit_latencies(const topo::Topology& topo) {
  return std::vector<int>(static_cast<std::size_t>(topo.graph().num_edges()),
                          1);
}

struct Row {
  std::string fabric;
  std::string workload;
  bool dual_engine = false;  ///< AoS side ran too (aos/speedup meaningful)
  double aos_seconds = 0.0;  ///< only meaningful when dual_engine
  double soa_seconds = 0.0;
  double table_build_s = 0.0;  ///< the tier's route table (0 when live)
  long long flits = 0;  ///< measured flits (identical across engines)
  bool drained = false;
  bool identical = true;  ///< vacuously true when only one engine ran

  double speedup() const {
    return aos_seconds > 0.0 && soa_seconds > 0.0
               ? aos_seconds / soa_seconds
               : 0.0;
  }
  double soa_flits_per_sec() const {
    return soa_seconds > 0.0 ? static_cast<double>(flits) / soa_seconds
                             : 0.0;
  }
  /// What one table-backed SoA run of this row costs from scratch.
  double end_to_end_s() const { return table_build_s + soa_seconds; }
};

void print_row(const Row& r) {
  char aos[24];
  char speedup[16];
  if (r.dual_engine) {
    std::snprintf(aos, sizeof(aos), "aos %8.3f s", r.aos_seconds);
    std::snprintf(speedup, sizeof(speedup), "%6.2fx", r.speedup());
  } else {
    // SoA-only tier: there is no AoS time, so print none rather than a
    // bogus 0.000 s / 0.00x pair.
    std::snprintf(aos, sizeof(aos), "aos      --  ");
    std::snprintf(speedup, sizeof(speedup), "    --");
  }
  std::printf("%-14s %-22s  %s  soa %8.3f s  %s  "
              "%10.0f flits/s  table+soa %8.3f s  %s%s\n",
              r.fabric.c_str(), r.workload.c_str(), aos, r.soa_seconds,
              speedup, r.soa_flits_per_sec(), r.end_to_end_s(),
              r.drained ? "drained" : "UNDRAINED",
              r.identical ? "" : "  NOT IDENTICAL");
}

struct Tier {
  std::string fabric;
  topo::Topology topo;
  bool both_engines;   ///< time AoS too (and check identity)
  bool check_identity; ///< gate on bit-identical SimResults
  bool use_table;      ///< shared route table (off = live routing)
  double rate;
  int reps;            ///< timing reps per engine (min-of-reps)
};

sim::SimConfig tier_config(const Tier& tier, bool smoke) {
  sim::SimConfig config;
  config.num_vcs = 2;
  config.buffer_depth_flits = 4;
  config.injection_rate = tier.rate;
  config.warmup_cycles = smoke ? 200 : 500;
  config.measure_cycles = smoke ? 600 : 2000;
  return config;
}

/// `table` is the tier's shared route table, or null to route live;
/// `table_build_s` is what building it took.
Row run_tier(const Tier& tier,
             const std::shared_ptr<const sim::RouteTable>& table,
             double table_build_s, const std::string& workload, bool smoke) {
  const sim::TrafficSpec spec = sim::TrafficSpec::parse(workload);
  const auto pattern =
      spec.make_pattern(tier.topo.rows(), tier.topo.cols(),
                        tier.topo.concentration());
  const std::vector<int> latencies = unit_latencies(tier.topo);
  const sim::SimConfig config = tier_config(tier, smoke);

  const int ports = tier.topo.concentration() > 1
                        ? tier.topo.concentration()
                        : 1;
  const double packet_prob =
      config.injection_rate / static_cast<double>(config.packet_size_flits);
  const int num_sources = tier.topo.num_tiles() * ports;

  Row row;
  row.fabric = tier.fabric;
  row.workload = workload;
  row.dual_engine = tier.both_engines;
  row.table_build_s = table_build_s;

  sim::SimResult soa_result;
  row.soa_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < tier.reps; ++r) {
    // Construction happens outside the timer: the run loop is what this
    // benchmark tracks.
    sim::Simulator soa(tier.topo, latencies, config, *pattern, 1, nullptr,
                       table, spec.make_process(packet_prob, num_sources));
    const auto t0 = Clock::now();
    soa_result = soa.run();
    row.soa_seconds = std::min(row.soa_seconds, seconds_since(t0));
  }
  row.flits = soa_result.measured_packets *
              static_cast<long long>(config.packet_size_flits);
  row.drained = soa_result.drained;

  if (tier.both_engines) {
    sim::SimResult aos_result;
    row.aos_seconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < tier.reps; ++r) {
      sim::Simulator aos(tier.topo, latencies, config, *pattern, 1, nullptr,
                         table, spec.make_process(packet_prob, num_sources));
      const auto t0 = Clock::now();
      aos_result = aos.run_reference();
      row.aos_seconds = std::min(row.aos_seconds, seconds_since(t0));
    }
    if (tier.check_identity) {
      row.identical = aos_result == soa_result;
      if (!row.identical) {
        std::fprintf(stderr,
                     "BIT-IDENTITY VIOLATION: %s %s — SoA diverged from "
                     "AoS\n",
                     tier.fabric.c_str(), workload.c_str());
      }
    }
  }
  return row;
}

// --- Routing-policy saturation comparison (the v3 section) ---------------

struct SatRow {
  std::string fabric;
  std::string workload;
  double minimal_accepted = 0.0;  ///< flits / cycle / endpoint port
  double ugal_accepted = 0.0;
  double ratio() const {
    return minimal_accepted > 0.0 ? ugal_accepted / minimal_accepted : 0.0;
  }
};

/// One saturated SoA run; returns the accepted load (flits/cycle/port)
/// measured past the saturation point. Both policies get identical VC and
/// buffer resources (the UGAL floor of 4 VCs), so the comparison isolates
/// the routing decision; live routing on both sides (no table passed) keeps
/// the all-pairs UGAL table out of the measurement.
double run_saturated(const topo::Topology& topo, sim::RoutingPolicy policy,
                     const std::string& workload, double rate, bool smoke) {
  const sim::TrafficSpec spec = sim::TrafficSpec::parse(workload);
  const auto pattern =
      spec.make_pattern(topo.rows(), topo.cols(), topo.concentration());
  const std::vector<int> latencies = unit_latencies(topo);

  sim::SimConfig config;
  config.num_vcs = 4;
  config.buffer_depth_flits = 4;
  config.injection_rate = rate;
  config.warmup_cycles = smoke ? 300 : 1000;
  config.measure_cycles = smoke ? 600 : 2000;
  config.drain_cycles = smoke ? 500 : 2000;  // saturated runs rarely drain;
                                             // cap the tail, it is not gated
  config.routing_policy = policy;

  const double packet_prob =
      config.injection_rate / static_cast<double>(config.packet_size_flits);
  sim::Simulator s(topo, latencies, config, *pattern, 1, nullptr, nullptr,
                   spec.make_process(packet_prob, topo.num_tiles()));
  return s.run().accepted_rate;
}

void append_json(std::string& json, const Row& r) {
  // Schema v2: single-engine rows carry null aos_seconds/speedup (v1 wrote
  // misleading 0.000000 / 0.000 there); `dual_engine` makes the distinction
  // explicit for consumers. Schema v4 adds table_build_s and end_to_end_s
  // (table_build_s + soa_seconds; table_build_s is 0 on live-routing rows).
  char engine_fields[80];
  if (r.dual_engine) {
    std::snprintf(engine_fields, sizeof(engine_fields),
                  "\"aos_seconds\": %.6f, \"speedup\": %.3f",
                  r.aos_seconds, r.speedup());
  } else {
    std::snprintf(engine_fields, sizeof(engine_fields),
                  "\"aos_seconds\": null, \"speedup\": null");
  }
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"fabric\": \"%s\", \"workload\": \"%s\", "
      "\"dual_engine\": %s, %s, \"soa_seconds\": %.6f, "
      "\"table_build_s\": %.6f, \"end_to_end_s\": %.6f, "
      "\"soa_flits_per_sec\": %.0f, \"flits\": %lld, \"drained\": %s, "
      "\"identical\": %s}",
      r.fabric.c_str(), r.workload.c_str(),
      r.dual_engine ? "true" : "false", engine_fields, r.soa_seconds,
      r.table_build_s, r.end_to_end_s(), r.soa_flits_per_sec(), r.flits,
      r.drained ? "true" : "false",
      r.identical ? "true" : "false");
  if (!json.empty()) json += ",\n";
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::printf("usage: bench_sim_scale [--smoke] [--out file.json]\n");
      return 2;
    }
  }

  std::printf("=== bench_sim_scale (%s mode) ===\n",
              smoke ? "smoke" : "full");

  // Hotspot ids scale with the fabric (two hot tiles, one corner-ish and
  // one central); onoff keeps the same burst shape everywhere.
  auto workloads = [](int num_terminals) {
    return std::vector<std::string>{
        "uniform",
        "hotspot:0," + std::to_string(num_terminals / 2) + ":0.3",
        "uniform/onoff:0.05,0.2",
    };
  };

  std::vector<Tier> tiers;
  tiers.push_back({"mesh-10x10", topo::make_mesh(10, 10),
                   /*both_engines=*/true, /*check_identity=*/true,
                   /*use_table=*/true, /*rate=*/0.05, /*reps=*/smoke ? 1 : 3});
  tiers.push_back({"mesh-32x32", topo::make_mesh(32, 32),
                   /*both_engines=*/true, /*check_identity=*/true,
                   /*use_table=*/true, /*rate=*/0.02,
                   /*reps=*/smoke ? 2 : 3});
  tiers.push_back({"cmesh-16x16x4", topo::make_concentrated_mesh(16, 16, 4),
                   /*both_engines=*/true, /*check_identity=*/true,
                   /*use_table=*/true, /*rate=*/0.01,
                   /*reps=*/smoke ? 1 : 2});
  tiers.push_back({"mesh-64x64", topo::make_mesh(64, 64),
                   /*both_engines=*/false, /*check_identity=*/false,
                   /*use_table=*/false, /*rate=*/0.01,
                   /*reps=*/1});

  std::vector<Row> rows;
  bool all_identical = true;
  bool scale_drained = true;
  double gate_speedup = 0.0;
  for (const Tier& tier : tiers) {
    // One route table per tier, timed on its own (routing-function
    // construction included) and outside the run timers: the table is a
    // per-topology artifact sweeps amortize, reported per row next to the
    // run it serves.
    std::shared_ptr<const sim::RouteTable> table;
    double table_build_s = 0.0;
    if (tier.use_table) {
      const sim::SimConfig config = tier_config(tier, smoke);
      const auto t0 = Clock::now();
      table = std::make_shared<const sim::RouteTable>(
          tier.topo, *sim::make_policy_routing(tier.topo, config),
          config.num_vcs);
      table_build_s = seconds_since(t0);
    }
    for (const std::string& workload :
         workloads(tier.topo.num_tiles() * tier.topo.concentration())) {
      rows.push_back(run_tier(tier, table, table_build_s, workload, smoke));
      print_row(rows.back());
      const Row& r = rows.back();
      all_identical = all_identical && r.identical;
      if (tier.fabric == "mesh-64x64") {
        scale_drained = scale_drained && r.drained;
      }
      if (tier.fabric == "mesh-32x32" && workload == "uniform") {
        gate_speedup = r.speedup();
      }
    }
  }

  std::printf("soa bit-identical to aos on all dual-engine rows: %s\n",
              all_identical ? "yes" : "NO — BUG");
  std::printf("32x32 uniform soa-over-aos speedup: %.2fx (gate: 3x)\n",
              gate_speedup);

  // Routing-policy saturation section: minimal vs UGAL accepted load past
  // saturation, adversarial workloads only (uniform is minimal routing's
  // best case and not what adaptivity is for). Both 32x32 fabrics run both
  // workloads: the torus pairs transpose with single-path DOR (UGAL's win
  // case), the mesh pairs hotspot with O1TURN congestion trees.
  std::printf("--- routing policy at saturation (32x32, 4 VCs) ---\n");
  const std::vector<std::pair<std::string, topo::Topology>> sat_fabrics = [] {
    std::vector<std::pair<std::string, topo::Topology>> fabrics;
    fabrics.emplace_back("mesh-32x32", topo::make_mesh(32, 32));
    fabrics.emplace_back("torus-32x32", topo::make_torus(32, 32));
    return fabrics;
  }();
  const std::vector<std::pair<std::string, double>> sat_workloads = {
      {"hotspot:0,528:0.3", 0.30},
      {"transpose", 0.30},
  };
  std::vector<SatRow> sat_rows;
  double best_ratio = 0.0;
  for (const auto& [fabric, sat_topo] : sat_fabrics) {
    for (const auto& [workload, rate] : sat_workloads) {
      SatRow sat;
      sat.fabric = fabric;
      sat.workload = workload;
      sat.minimal_accepted = run_saturated(
          sat_topo, sim::RoutingPolicy::kMinimal, workload, rate, smoke);
      sat.ugal_accepted = run_saturated(
          sat_topo, sim::RoutingPolicy::kUgal, workload, rate, smoke);
      best_ratio = std::max(best_ratio, sat.ratio());
      std::printf("%-12s %-22s  minimal %.4f  ugal %.4f  (%.2fx)\n",
                  sat.fabric.c_str(), sat.workload.c_str(),
                  sat.minimal_accepted, sat.ugal_accepted, sat.ratio());
      sat_rows.push_back(sat);
    }
  }
  std::printf("best ugal-over-minimal accepted load: %.2fx (gate: 1.5x)\n",
              best_ratio);

  std::string entries;
  for (const Row& r : rows) append_json(entries, r);
  std::string sat_entries;
  for (const SatRow& sat : sat_rows) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"fabric\": \"%s\", \"workload\": \"%s\", "
                  "\"minimal_accepted\": %.6f, "
                  "\"ugal_accepted\": %.6f, \"ratio\": %.3f}",
                  sat.fabric.c_str(), sat.workload.c_str(),
                  sat.minimal_accepted, sat.ugal_accepted, sat.ratio());
    if (!sat_entries.empty()) sat_entries += ",\n";
    sat_entries += buf;
  }
  std::ofstream out(out_path);
  out << "{\n  \"schema\": \"shg.bench_sim_scale.v4\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"all_identical\": " << (all_identical ? "true" : "false")
      << ",\n"
      << "  \"speedup_32x32_uniform\": " << gate_speedup << ",\n"
      << "  \"scale_64x64_drained\": " << (scale_drained ? "true" : "false")
      << ",\n"
      << "  \"ugal_best_ratio\": " << best_ratio << ",\n"
      << "  \"rows\": [\n"
      << entries << "\n  ],\n"
      << "  \"routing_saturation\": [\n"
      << sat_entries << "\n  ]\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "error: could not write %s\n", out_path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", out_path.c_str());

  bench::Gates gates;
  gates.check(all_identical, "SoA engine diverged from the AoS reference");
  gates.check(gate_speedup >= 3.0,
              "32x32 uniform speedup %.2fx below the 3x acceptance bar",
              gate_speedup);
  gates.check(scale_drained, "a 64x64 run did not drain");
  gates.check(best_ratio >= 1.5,
              "UGAL best accepted-load ratio %.2fx below the 1.5x acceptance "
              "bar (adaptivity is not paying off)",
              best_ratio);
  return gates.exit_code();
}
