// Tests for the batched experiment engine: spec validation, determinism
// across worker counts, multi-seed aggregation, the sweep_load_latency
// wrapper's bit-identity with the engine-free implementation it replaced,
// CSV/JSON rendering (including comma-label escaping), and the session
// simulation-result tier — warm-run bit-identity, overlap reuse, cell-key
// sensitivity (every SimConfig field), sharded campaigns, and the shard-
// file corruption matrix (cold fallback, never stale bits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "shg/common/parallel.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/eval/sweep.hpp"
#include "shg/sim/trace.hpp"
#include "shg/topo/generators.hpp"

namespace shg::eval {
namespace {

PerfConfig fast_config() {
  PerfConfig config;
  config.sim.num_vcs = 2;
  config.sim.buffer_depth_flits = 4;
  config.sim.warmup_cycles = 200;
  config.sim.measure_cycles = 600;
  config.sim.drain_cycles = 8000;
  return config;
}

ExperimentSpec small_spec() {
  ExperimentSpec spec;
  spec.name = "unit";
  spec.topologies.push_back(TopologyCase{topo::make_mesh(4, 4), {}, ""});
  spec.topologies.push_back(TopologyCase{topo::make_torus(4, 4), {}, ""});
  spec.traffic.push_back(TrafficCase{"uniform", nullptr, ""});
  spec.traffic.push_back(TrafficCase{"hotspot:0,7:0.2", nullptr, ""});
  spec.rates = {0.05, 0.15};
  spec.seeds = {1, 2, 3};
  spec.config = fast_config();
  return spec;
}

TEST(Experiment, Validation) {
  ExperimentSpec spec = small_spec();
  spec.rates = {};
  EXPECT_THROW(run_experiment(spec), Error);
  spec = small_spec();
  spec.rates = {1.5};
  EXPECT_THROW(run_experiment(spec), Error);
  spec = small_spec();
  spec.traffic[0].spec = "warp";  // unknown spec rejected up front
  EXPECT_THROW(run_experiment(spec), Error);
  spec = small_spec();
  spec.topologies[0].link_latencies = {1, 2};  // wrong edge count
  EXPECT_THROW(run_experiment(spec), Error);
}

TEST(Experiment, PointGridAndLabels) {
  const ExperimentReport report = run_experiment(small_spec());
  ASSERT_EQ(report.points.size(), 2u * 2u * 2u);  // topo x traffic x rate
  // Topology-major, then traffic, then rate.
  EXPECT_EQ(report.points[0].topology, "mesh");
  EXPECT_EQ(report.points[0].traffic, "uniform");
  EXPECT_EQ(report.points[0].offered_rate, 0.05);
  EXPECT_EQ(report.points[1].offered_rate, 0.15);
  EXPECT_EQ(report.points[2].traffic, "hotspot:0,7:0.2");
  EXPECT_EQ(report.points[4].topology, "torus");
  for (const ExperimentPoint& point : report.points) {
    EXPECT_EQ(point.replicas, 3);
    ASSERT_EQ(point.runs.size(), 3u);
  }
}

TEST(Experiment, DeterministicAcrossWorkerCounts) {
  // The acceptance property: aggregates identical with one worker and
  // with the default worker count.
  const ExperimentSpec spec = small_spec();
  set_max_threads(1);
  const ExperimentReport serial = run_experiment(spec);
  set_max_threads(0);
  const ExperimentReport parallel = run_experiment(spec);
  EXPECT_EQ(experiment_to_json(serial), experiment_to_json(parallel));
  EXPECT_EQ(experiment_to_csv(serial), experiment_to_csv(parallel));
}

TEST(Experiment, AggregatesMatchHandComputation) {
  ExperimentSpec spec = small_spec();
  spec.topologies.erase(spec.topologies.begin() + 1, spec.topologies.end());
  spec.traffic.resize(1);
  spec.rates = {0.10};
  const ExperimentReport report = run_experiment(spec);
  ASSERT_EQ(report.points.size(), 1u);
  const ExperimentPoint& point = report.points.front();
  ASSERT_EQ(point.runs.size(), 3u);
  double total = 0.0;
  double lo = point.runs[0].avg_packet_latency;
  double hi = lo;
  for (const sim::SimResult& run : point.runs) {
    total += run.avg_packet_latency;
    lo = std::min(lo, run.avg_packet_latency);
    hi = std::max(hi, run.avg_packet_latency);
  }
  const double mean = total / 3.0;
  EXPECT_DOUBLE_EQ(point.avg_latency.mean, mean);
  EXPECT_DOUBLE_EQ(point.avg_latency.min, lo);
  EXPECT_DOUBLE_EQ(point.avg_latency.max, hi);
  double sq = 0.0;
  for (const sim::SimResult& run : point.runs) {
    sq += (run.avg_packet_latency - mean) * (run.avg_packet_latency - mean);
  }
  EXPECT_DOUBLE_EQ(point.avg_latency.stddev, std::sqrt(sq / 3.0));
  // Distinct seeds really are distinct runs.
  EXPECT_NE(point.runs[0].avg_packet_latency,
            point.runs[1].avg_packet_latency);
}

TEST(Experiment, MultiSeedSameSeedCollapses) {
  ExperimentSpec spec = small_spec();
  spec.topologies.erase(spec.topologies.begin() + 1, spec.topologies.end());
  spec.traffic.resize(1);
  spec.rates = {0.10};
  spec.seeds = {7, 7};
  const ExperimentReport report = run_experiment(spec);
  const ExperimentPoint& point = report.points.front();
  EXPECT_EQ(point.runs[0].avg_packet_latency,
            point.runs[1].avg_packet_latency);
  EXPECT_DOUBLE_EQ(point.avg_latency.stddev, 0.0);
}

TEST(Experiment, SweepWrapperBitIdenticalToDirectLoop) {
  // sweep_load_latency is now a wrapper over the engine; its curve must be
  // bit-identical to the engine-free implementation it replaced (one
  // shared route table, one simulate_at_rate per rate).
  const auto topo = topo::make_mesh(4, 4);
  const std::vector<int> latencies(
      static_cast<std::size_t>(topo.graph().num_edges()), 1);
  const auto pattern = sim::make_uniform(16);
  const PerfConfig config = fast_config();
  const std::vector<double> rates = {0.05, 0.10, 0.20};

  const LoadLatencyCurve curve = sweep_load_latency(
      topo, latencies, 1, *pattern, config, rates, "mesh");

  const auto table = make_shared_route_table(topo, config);
  ASSERT_EQ(curve.points.size(), rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const sim::SimResult reference = simulate_at_rate(
        topo, latencies, 1, *pattern, config, rates[i], table);
    EXPECT_EQ(curve.points[i].offered_rate, reference.offered_rate);
    EXPECT_EQ(curve.points[i].accepted_rate, reference.accepted_rate);
    EXPECT_EQ(curve.points[i].avg_latency, reference.avg_packet_latency);
    EXPECT_EQ(curve.points[i].p99_latency, reference.p99_packet_latency);
    EXPECT_EQ(curve.points[i].drained, reference.drained);
  }
}

TEST(Experiment, CsvEscapesCommaLabels) {
  ExperimentSpec spec = small_spec();
  spec.topologies.erase(spec.topologies.begin() + 1, spec.topologies.end());
  spec.traffic = {TrafficCase{"hotspot:0,7:0.2", nullptr, ""}};
  spec.rates = {0.05};
  spec.seeds = {1};
  const std::string csv = experiment_to_csv(run_experiment(spec));
  EXPECT_NE(csv.find("\"hotspot:0,7:0.2\""), std::string::npos);
  // Every data row still has the same column count as the header.
  const auto count_cols = [](const std::string& line) {
    std::size_t cols = 1;
    bool quoted = false;
    for (char c : line) {
      if (c == '"') quoted = !quoted;
      if (c == ',' && !quoted) ++cols;
    }
    return cols;
  };
  const auto header_end = csv.find('\n');
  const auto row_end = csv.find('\n', header_end + 1);
  EXPECT_EQ(count_cols(csv.substr(0, header_end)),
            count_cols(csv.substr(header_end + 1,
                                  row_end - header_end - 1)));
}

TEST(Experiment, CurvesCsvEscapesLabels) {
  LoadLatencyCurve curve;
  curve.label = "hotspot:0,7:0.2 \"bursty\"";
  curve.points.push_back(SweepPoint{0.1, 0.1, 5.0, 9.0, true});
  const std::string csv = curves_to_csv({curve});
  EXPECT_NE(csv.find("\"hotspot:0,7:0.2 \"\"bursty\"\"\","),
            std::string::npos);
}

TEST(Experiment, JsonReportShape) {
  ExperimentSpec spec = small_spec();
  spec.topologies.erase(spec.topologies.begin() + 1, spec.topologies.end());
  spec.traffic.resize(1);
  spec.rates = {0.05};
  spec.seeds = {1};
  const std::string json = experiment_to_json(run_experiment(spec));
  EXPECT_NE(json.find("\"schema\": \"shg.experiment.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"topology\": \"mesh\""), std::string::npos);
  EXPECT_NE(json.find("\"accepted_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"stddev\""), std::string::npos);
  EXPECT_NE(json.find("\"route_tables\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes_undeduped\""), std::string::npos);
}

TEST(Experiment, ReportsDedupedRouteTableFootprint) {
  ExperimentSpec spec = small_spec();
  const ExperimentReport report = run_experiment(spec);
  ASSERT_EQ(report.route_tables.size(), spec.topologies.size());
  for (const TableFootprint& table : report.route_tables) {
    EXPECT_GT(table.rows, table.unique_rows);
    EXPECT_LT(table.bytes, table.bytes_undeduped);
  }
}

TEST(Experiment, Figure6SpecRunsThroughEngine) {
  // The Figure 6 scenarios expressed as ExperimentSpecs: cost-model link
  // latencies per topology, uniform Bernoulli traffic. Shrunk here (two
  // topologies, short cycles) to keep the suite fast.
  ExperimentSpec spec =
      figure6_experiment(figure6_scenario(tech::KncScenario::kA),
                         {0.05, 0.10});
  ASSERT_GE(spec.topologies.size(), 5u);
  for (const TopologyCase& tc : spec.topologies) {
    EXPECT_EQ(tc.link_latencies.size(),
              static_cast<std::size_t>(tc.topology.graph().num_edges()));
  }
  // The customized SHG is the last entry (scenario_topologies contract).
  EXPECT_EQ(spec.topologies.back().topology.kind(),
            topo::Kind::kSparseHamming);
  spec.topologies.erase(spec.topologies.begin() + 1,
                        spec.topologies.end() - 1);
  spec.config.sim.warmup_cycles = 200;
  spec.config.sim.measure_cycles = 600;
  spec.config.sim.drain_cycles = 8000;
  const ExperimentReport report = run_experiment(spec);
  ASSERT_EQ(report.points.size(), 2u * 2u);
  for (const ExperimentPoint& point : report.points) {
    EXPECT_EQ(point.traffic, "uniform");
    EXPECT_TRUE(point.all_drained);
    EXPECT_GT(point.avg_latency.mean, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Session simulation-result tier
// ---------------------------------------------------------------------------

std::string report_bytes(const ExperimentReport& report) {
  return experiment_to_json(report) + experiment_to_csv(report);
}

/// The session-free rendering of small_spec() — the oracle every
/// session-backed variant must reproduce byte for byte. Computed once.
const std::string& reference_bytes() {
  static const std::string bytes = report_bytes(run_experiment(small_spec()));
  return bytes;
}

TEST(ResultTier, WarmRunZeroSimsByteIdentical) {
  ExperimentSpec spec = small_spec();
  customize::Session session;
  spec.session = &session;

  const ExperimentReport cold = run_experiment(spec);
  const std::size_t cells = spec.topologies.size() * spec.traffic.size() *
                            spec.rates.size() * spec.seeds.size();
  EXPECT_EQ(cold.sim_cells, cells);
  EXPECT_EQ(cold.sim_cache_hits, 0u);
  EXPECT_EQ(cold.sim_simulated, cells);
  EXPECT_EQ(report_bytes(cold), reference_bytes());

  const ExperimentReport warm = run_experiment(spec);
  EXPECT_EQ(warm.sim_cache_hits, cells);
  EXPECT_EQ(warm.sim_simulated, 0u);  // a fully warm run simulates nothing
  EXPECT_EQ(report_bytes(warm), reference_bytes());
}

TEST(ResultTier, OverlapOnlySimulatesNewCells) {
  ExperimentSpec spec = small_spec();
  customize::Session session;
  spec.session = &session;
  spec.seeds = {1, 2};
  run_experiment(spec);

  // Widen the campaign by one seed: only the new cells simulate, and the
  // report matches a session-free run of the widened spec exactly.
  spec.seeds = {1, 2, 3};
  const ExperimentReport warm = run_experiment(spec);
  const std::size_t per_seed =
      spec.topologies.size() * spec.traffic.size() * spec.rates.size();
  EXPECT_EQ(warm.sim_cache_hits, 2u * per_seed);
  EXPECT_EQ(warm.sim_simulated, per_seed);
  EXPECT_EQ(report_bytes(warm), reference_bytes());
}

TEST(ResultTier, UnsortedRatesByteIdenticalAcrossWorkerCounts) {
  // Workers claim cells highest offered rate first, so with unsorted rates
  // the claim order differs from the cell order. Neither the report nor
  // the saved sim-tier file (LRU order = store order) may depend on it.
  ExperimentSpec spec = small_spec();
  spec.rates = {0.1, 0.02, 0.05};
  const std::string path = testing::TempDir() + "/unsorted-rates.cache";
  auto file_bytes = [&](customize::Session& session) {
    EXPECT_GT(session.sim_cache().save_file(path), 0u);
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    std::remove(path.c_str());
    return bytes;
  };
  auto run = [&](int threads) {
    customize::Session session;
    spec.session = &session;
    set_max_threads(threads);
    const std::string report = report_bytes(run_experiment(spec));
    set_max_threads(0);
    return std::make_pair(report, file_bytes(session));
  };
  const auto [serial, serial_file] = run(1);
  const auto [parallel, parallel_file] = run(0);
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial_file, parallel_file);

  // Reference: the same cells simulated one per run, in ascending cell
  // order (topology slowest, seed fastest), into one session. Its tier
  // file is the ascending store order, and a warm run served from it
  // places every cached result by cell index alone.
  customize::Session reference;
  for (const TopologyCase& topology : spec.topologies) {
    for (const TrafficCase& traffic : spec.traffic) {
      for (const double rate : spec.rates) {
        for (const std::uint64_t seed : spec.seeds) {
          ExperimentSpec cell = spec;
          cell.topologies = {topology};
          cell.traffic = {traffic};
          cell.rates = {rate};
          cell.seeds = {seed};
          cell.session = &reference;
          run_experiment(cell);
        }
      }
    }
  }
  EXPECT_EQ(file_bytes(reference), serial_file);
  spec.session = &reference;
  const ExperimentReport warm = run_experiment(spec);
  EXPECT_EQ(warm.sim_simulated, 0u);
  EXPECT_EQ(report_bytes(warm), serial);
}

TEST(ResultTier, BorrowedPatternCellsAlwaysSimulate) {
  // Workloads passed as borrowed TrafficPattern pointers have no canonical
  // string, so they are never cached — a warm re-run re-simulates exactly
  // those cells, and both runs render identically.
  ExperimentSpec spec = small_spec();
  const auto pattern = sim::make_uniform(16);
  spec.traffic[1] = TrafficCase{"", pattern.get(), "borrowed-uniform"};
  customize::Session session;
  spec.session = &session;

  const ExperimentReport cold = run_experiment(spec);
  const ExperimentReport warm = run_experiment(spec);
  const std::size_t borrowed_cells =
      spec.topologies.size() * spec.rates.size() * spec.seeds.size();
  EXPECT_EQ(warm.sim_cache_hits, cold.sim_cells - borrowed_cells);
  EXPECT_EQ(warm.sim_simulated, borrowed_cells);
  EXPECT_EQ(report_bytes(warm), report_bytes(cold));
}

TEST(ResultTier, ShardMergeMatchesSingleProcess) {
  // The sharded campaign protocol end to end, including a shard count that
  // does not divide the grid evenly: workers partition the cells exactly,
  // and the merged session serves every cell without simulating.
  for (const int shard_count : {2, 5}) {
    customize::Session merged;
    std::size_t worker_simulated = 0;
    std::size_t owned = 0;
    for (int s = 0; s < shard_count; ++s) {
      const std::string path = testing::TempDir() + "/shard" +
                               std::to_string(s) + "of" +
                               std::to_string(shard_count) + ".cache";
      customize::Session worker;
      ExperimentSpec spec = small_spec();
      spec.session = &worker;
      const ShardRunStats stats =
          run_experiment_shard(spec, s, shard_count);
      EXPECT_EQ(stats.simulated, stats.shard_cells);  // fresh worker
      worker_simulated += stats.simulated;
      owned += stats.shard_cells;
      EXPECT_EQ(worker.sim_cache().save_file(path), stats.shard_cells);
      EXPECT_EQ(merged.sim_cache().load_file(path), stats.shard_cells);
      std::remove(path.c_str());
    }
    ExperimentSpec spec = small_spec();
    const std::size_t cells = spec.topologies.size() * spec.traffic.size() *
                              spec.rates.size() * spec.seeds.size();
    EXPECT_EQ(owned, cells);             // exact partition, no overlap
    EXPECT_EQ(worker_simulated, cells);  // each cell simulated exactly once
    spec.session = &merged;
    const ExperimentReport report = run_experiment(spec);
    EXPECT_EQ(report.sim_simulated, 0u) << shard_count << " shards";
    EXPECT_EQ(report_bytes(report), reference_bytes())
        << shard_count << " shards";
  }
}

TEST(ResultTier, ShardRunValidation) {
  ExperimentSpec spec = small_spec();
  EXPECT_THROW(run_experiment_shard(spec, 0, 2), Error);  // session required
  customize::Session session;
  spec.session = &session;
  EXPECT_THROW(run_experiment_shard(spec, 2, 2), Error);
  EXPECT_THROW(run_experiment_shard(spec, -1, 2), Error);
  EXPECT_THROW(run_experiment_shard(spec, 0, 0), Error);
}

/// Rewrites one byte of a file in place.
void flip_byte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(offset);
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(offset);
  f.write(&c, 1);
}

/// Corruption matrix for per-shard result-tier files: every damaged file
/// must be discarded with a warning and the campaign must fall back to
/// cold simulation with a byte-identical report — never crash, never
/// serve stale bits.
class ShardCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/sim-shard-corrupt.cache";
    customize::Session worker;
    ExperimentSpec spec = small_spec();
    spec.session = &worker;
    const ShardRunStats stats = run_experiment_shard(spec, 0, 1);
    ASSERT_EQ(worker.sim_cache().save_file(path_), stats.shard_cells);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void expect_cold_fallback() {
    customize::Session session;
    EXPECT_EQ(session.sim_cache().load_file(path_), 0u);
    EXPECT_EQ(session.sim_cache().size(), 0u);
    EXPECT_EQ(session.sim_stats().disk_discarded, 1u);
    ExperimentSpec spec = small_spec();
    spec.session = &session;
    const ExperimentReport report = run_experiment(spec);
    EXPECT_EQ(report.sim_cache_hits, 0u);
    EXPECT_EQ(report.sim_simulated, report.sim_cells);
    EXPECT_EQ(report_bytes(report), reference_bytes());
  }

  std::string path_;
};

TEST_F(ShardCorruptionTest, TruncatedHeaderFallsBackCold) {
  std::ofstream(path_, std::ios::binary | std::ios::trunc) << "SHGCACH";
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, TruncatedPayloadFallsBackCold) {
  std::ifstream in(path_, std::ios::binary);
  std::vector<char> data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  in.close();
  data.resize(data.size() - 13);  // mid-entry truncation
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  out.close();
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, FlippedChecksumByteFallsBackCold) {
  flip_byte(path_, 24);  // inside the stored checksum
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, FlippedPayloadByteFallsBackCold) {
  flip_byte(path_, 32 + 50);  // inside the first entry's SimResult
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, FutureVersionFallsBackCold) {
  flip_byte(path_, 8);  // version field
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, WrongMagicFallsBackCold) {
  flip_byte(path_, 0);
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, WrongPayloadKindFallsBackCold) {
  flip_byte(path_, 12);  // payload-kind field: no longer a sim-result file
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, CandidateFileFedToSimLoaderFallsBackCold) {
  // A real, checksum-valid candidate-tier file is still the wrong payload
  // kind for the result tier — it must be rejected, not reinterpreted.
  customize::CandidateCache candidates(4);
  customize::CandidateMetrics metrics;
  metrics.area_overhead = 0.25;
  candidates.insert(
      customize::FingerprintBuilder().tag("test.key").u64(1).done(), metrics);
  ASSERT_EQ(candidates.save_file(path_), 1u);
  expect_cold_fallback();
}

TEST_F(ShardCorruptionTest, LostShardIsSimulatedByTheMerge) {
  // One good shard of two, the other corrupt: the merge discards the bad
  // file, serves the good shard's cells, simulates the rest, and still
  // renders the canonical bytes.
  const std::string good = testing::TempDir() + "/sim-shard-good.cache";
  customize::Session worker;
  ExperimentSpec spec = small_spec();
  spec.session = &worker;
  const ShardRunStats stats = run_experiment_shard(spec, 1, 2);
  ASSERT_EQ(worker.sim_cache().save_file(good), stats.shard_cells);
  flip_byte(path_, 32 + 5);  // the full-grid file from SetUp, now corrupt

  customize::Session merged;
  EXPECT_EQ(merged.sim_cache().load_file(path_), 0u);
  EXPECT_EQ(merged.sim_cache().load_file(good), stats.shard_cells);
  std::remove(good.c_str());
  ExperimentSpec merge_spec = small_spec();
  merge_spec.session = &merged;
  const ExperimentReport report = run_experiment(merge_spec);
  EXPECT_EQ(report.sim_cache_hits, stats.shard_cells);
  EXPECT_EQ(report.sim_simulated, report.sim_cells - stats.shard_cells);
  EXPECT_EQ(report_bytes(report), reference_bytes());
}

// ---------------------------------------------------------------------------
// Cell-key fingerprints
// ---------------------------------------------------------------------------

TEST(ResultTierKeys, SimConfigFingerprintCoversEveryField) {
  // Perturb every SimConfig field in turn: each must change the config
  // fingerprint, and no two perturbations may alias. When this test (or
  // the sizeof static_assert next to fingerprint_sim_config) fails after
  // adding a field, extend both the fingerprint and this list.
  const sim::SimConfig base;
  std::vector<sim::SimConfig> perturbed(14, base);
  perturbed[0].num_vcs += 1;
  perturbed[1].buffer_depth_flits += 1;
  perturbed[2].router_delay_cycles += 1;
  perturbed[3].packet_size_flits += 1;
  perturbed[4].injection_rate += 0.01;
  perturbed[5].concentration += 1;
  perturbed[6].warmup_cycles += 1;
  perturbed[7].measure_cycles += 1;
  perturbed[8].drain_cycles += 1;
  perturbed[9].latency_sample_cap += 1;
  perturbed[10].seed += 1;
  perturbed[11].routing_policy = sim::RoutingPolicy::kUgal;
  perturbed[12].ugal_bias_flits += 1;
  perturbed[13].ugal_via_seed += 1;

  std::vector<customize::Fingerprint> fps;
  fps.push_back(customize::fingerprint_sim_config(base));
  EXPECT_EQ(fps[0], customize::fingerprint_sim_config(base));
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    fps.push_back(customize::fingerprint_sim_config(perturbed[i]));
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    for (std::size_t j = i + 1; j < fps.size(); ++j) {
      EXPECT_FALSE(fps[i] == fps[j]) << "field " << i << " aliases " << j;
    }
  }
}

TEST(ResultTierKeys, CellKeyTracksEveryIngredient) {
  const topo::Topology mesh = topo::make_mesh(4, 4);
  const std::vector<int> unit(
      static_cast<std::size_t>(mesh.graph().num_edges()), 1);
  const customize::Fingerprint topo_fp =
      customize::fingerprint_sim_topology(mesh, unit, 1);
  EXPECT_EQ(topo_fp, customize::fingerprint_sim_topology(mesh, unit, 1));

  // Link latencies and endpoint count are physical inputs to the cell.
  std::vector<int> slower = unit;
  slower[3] = 2;
  EXPECT_FALSE(topo_fp == customize::fingerprint_sim_topology(mesh, slower, 1));
  EXPECT_FALSE(topo_fp == customize::fingerprint_sim_topology(mesh, unit, 2));
  // Family kind feeds routing even on an identical edge set: an SHG with
  // empty skip sets has the mesh's edges but must not share its cells.
  const topo::Topology shg = topo::make_sparse_hamming(4, 4, {}, {});
  const std::vector<int> shg_unit(
      static_cast<std::size_t>(shg.graph().num_edges()), 1);
  EXPECT_FALSE(topo_fp ==
               customize::fingerprint_sim_topology(shg, shg_unit, 1));

  const sim::SimConfig config;
  const customize::Fingerprint cell =
      customize::fingerprint_sim_cell(topo_fp, "uniform", config);
  EXPECT_EQ(cell, customize::fingerprint_sim_cell(topo_fp, "uniform", config));
  EXPECT_FALSE(cell ==
               customize::fingerprint_sim_cell(topo_fp, "transpose", config));
  sim::SimConfig reseeded = config;
  reseeded.seed += 1;
  EXPECT_FALSE(cell ==
               customize::fingerprint_sim_cell(topo_fp, "uniform", reseeded));
}

// --- Trace cells through the result tier -----------------------------------

/// Records a small uniform trace for the 4x4 grids of small_spec().
sim::Trace unit_trace(std::uint64_t seed) {
  sim::TraceRecordOptions opt;
  opt.rows = 4;
  opt.cols = 4;
  opt.injection_rate = 0.05;
  opt.packet_size_flits = fast_config().sim.packet_size_flits;
  opt.cycles = 800;
  opt.seed = seed;
  return sim::trace_from_spec(sim::TrafficSpec::parse("uniform"), opt);
}

TEST(ResultTierKeys, TraceCellKeysDistinctForOneByteDifference) {
  // Two traces that differ in a single byte of a single record must key
  // distinct cells, even under an identical canonical spec string (same
  // path, edited file) — the content hash is the distinguishing
  // ingredient. A zero hash (synthetic workloads) keys the legacy bytes.
  const topo::Topology mesh = topo::make_mesh(4, 4);
  const std::vector<int> unit(
      static_cast<std::size_t>(mesh.graph().num_edges()), 1);
  const customize::Fingerprint topo_fp =
      customize::fingerprint_sim_topology(mesh, unit, 1);
  const sim::SimConfig config;

  sim::Trace a = unit_trace(1);
  sim::Trace b = a;
  b.records[0].dest ^= 1;  // one bit of one byte of one record
  const std::string canonical = "trace:same/path.trace";
  const customize::Fingerprint key_a = customize::fingerprint_sim_cell(
      topo_fp, canonical, config, a.content_hash());
  const customize::Fingerprint key_b = customize::fingerprint_sim_cell(
      topo_fp, canonical, config, b.content_hash());
  EXPECT_FALSE(key_a == key_b);
  EXPECT_EQ(key_a, customize::fingerprint_sim_cell(topo_fp, canonical, config,
                                                   a.content_hash()));
}

TEST(ResultTier, WarmTraceCampaignZeroSimsByteIdentical) {
  // Trace cells are fully cacheable: a warm campaign over a trace workload
  // re-simulates nothing and renders byte-identically, and the cold run
  // matches a session-free reference at any worker count.
  const std::string path = testing::TempDir() + "/warm-campaign.trace";
  sim::save_trace(unit_trace(3), path);
  ExperimentSpec spec = small_spec();
  spec.traffic[1] = TrafficCase{"trace:" + path, nullptr, ""};

  const std::string reference = report_bytes(run_experiment(spec));
  set_max_threads(1);
  const std::string serial = report_bytes(run_experiment(spec));
  set_max_threads(0);
  EXPECT_EQ(serial, reference);

  customize::Session session;
  spec.session = &session;
  const ExperimentReport cold = run_experiment(spec);
  EXPECT_EQ(cold.sim_simulated, cold.sim_cells);
  EXPECT_EQ(report_bytes(cold), reference);

  const ExperimentReport warm = run_experiment(spec);
  EXPECT_EQ(warm.sim_simulated, 0u);
  EXPECT_EQ(warm.sim_cache_hits, warm.sim_cells);
  EXPECT_EQ(report_bytes(warm), reference);
}

TEST(ResultTier, EditedTraceFileMissesTheOldCells) {
  // Overwriting the trace file in place (same path, different bytes) must
  // MISS every cached cell: the key carries the content hash, not just
  // the path string.
  const std::string path = testing::TempDir() + "/edited.trace";
  sim::save_trace(unit_trace(1), path);
  ExperimentSpec spec = small_spec();
  spec.traffic = {TrafficCase{"trace:" + path, nullptr, ""}};
  customize::Session session;
  spec.session = &session;
  const ExperimentReport cold = run_experiment(spec);
  EXPECT_EQ(cold.sim_simulated, cold.sim_cells);

  sim::save_trace(unit_trace(2), path);  // new bytes, same path
  const ExperimentReport edited = run_experiment(spec);
  EXPECT_EQ(edited.sim_cache_hits, 0u);
  EXPECT_EQ(edited.sim_simulated, edited.sim_cells);

  // And the original bytes restored hit all their old cells again.
  sim::save_trace(unit_trace(1), path);
  const ExperimentReport warm = run_experiment(spec);
  EXPECT_EQ(warm.sim_simulated, 0u);
  EXPECT_EQ(report_bytes(warm), report_bytes(cold));
}

TEST(ResultTier, TraceShardMergeMatchesSingleProcess) {
  // Trace cells flow through the sharded-campaign protocol unchanged: two
  // shards exchanging shg.cache.v1 files merge into a run that simulates
  // nothing and renders the single-process bytes.
  const std::string trace_path = testing::TempDir() + "/shardable.trace";
  sim::save_trace(unit_trace(5), trace_path);
  ExperimentSpec spec = small_spec();
  spec.traffic[0] = TrafficCase{"trace:" + trace_path, nullptr, ""};

  const std::string reference = report_bytes(run_experiment(spec));

  customize::Session merged;
  for (int shard = 0; shard < 2; ++shard) {
    customize::Session worker;
    ExperimentSpec worker_spec = spec;
    worker_spec.session = &worker;
    const ShardRunStats stats = run_experiment_shard(worker_spec, shard, 2);
    EXPECT_EQ(stats.simulated, stats.shard_cells);
    const std::string path = testing::TempDir() + "/trace-shard" +
                             std::to_string(shard) + ".cache";
    ASSERT_EQ(worker.sim_cache().save_file(path), stats.shard_cells);
    ASSERT_EQ(merged.sim_cache().load_file(path), stats.shard_cells);
    std::remove(path.c_str());
  }
  ExperimentSpec merged_spec = spec;
  merged_spec.session = &merged;
  const ExperimentReport report = run_experiment(merged_spec);
  EXPECT_EQ(report.sim_simulated, 0u);
  EXPECT_EQ(report_bytes(report), reference);
}

}  // namespace
}  // namespace shg::eval
