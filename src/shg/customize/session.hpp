// Persistent DSE sessions: cross-invocation reuse of screening work.
//
// The paper's customization methodology (Section V) is iterative — the
// designer re-runs DSE with tweaked budgets, enumeration bounds or traffic
// assumptions over largely the same candidate space. A `Session` carries
// everything reusable across those invocations:
//
//  * a content-addressed candidate tier (customize/cache.hpp): screening
//    metrics keyed by canonical fingerprints, in-memory LRU plus an
//    optional on-disk tier (`shg.cache.v1`, checksummed; corrupt or
//    version-mismatched files are discarded with a warning — the session
//    degrades to cold screening, it never trusts a bad file);
//  * an artifact tier: shared immutable in-memory objects too large or too
//    structured for the serialized tier — final `model::CostReport`s of
//    accepted search winners, `sim::RouteTable`s the experiment engine
//    shares across runs (eval/experiment.hpp). Artifacts are type-erased
//    `shared_ptr<const void>`; type safety comes from the keying
//    convention (every artifact kind mixes its own domain tag into the
//    fingerprint, so keys of different kinds can never collide). This tier
//    is memory-only: it dies with the process.
//  * a simulation-result tier (SimResultCache): complete per-cell
//    `sim::SimResult`s keyed by `fingerprint_sim_cell` — (topology, link
//    latencies, endpoint count, canonical traffic spec, full SimConfig
//    with rate and seed). `eval::run_experiment` consults it before
//    simulating, so overlapping campaigns (added seeds, widened rate
//    grids, refined sweeps) only simulate the new cells, and its per-shard
//    `shg.cache.v1` files (payload kind 1) are the exchange medium of
//    sharded campaigns (`eval::run_experiment_shard` + a merge load).
//
// Wiring: pass a Session through `SearchOptions::session` /
// `ExploreOptions::session` (default off) or `eval::ExperimentSpec::
// session`. With a session attached, re-invocations with overlapping
// candidate spaces skip re-screening on cache hits.
//
// Exactness & concurrency: hits return the exact bits a cold screen
// produced (inserted from the same oracle-tested screening paths), so a
// warm search's history is bit-identical to a cold run's — the randomized
// oracle in tests/session_test.cpp and the `dse_session_warm` bench gate
// assert this end to end. Thread safety is selected by
// `SessionOptions::concurrency` (the `Session::ConcurrencyMode` contract):
//
//  * kSingleThread (default): exactly the pre-concurrency session — one
//    LRU per tier, no locking, all traffic on one thread of control. The
//    DSE engines do session traffic on the calling thread and fan out only
//    the cache-miss screening work (whose outputs land in index-addressed
//    slots per the parallel_for contract), which keeps LRU eviction order
//    — and therefore warm-run behavior — bit-for-bit deterministic.
//  * kSharded: every tier is safe for concurrent readers AND writers — the
//    candidate and simulation-result tiers become `shards` independent
//    lock-protected LRU shards keyed by fingerprint prefix, and the
//    artifact tier takes a mutex per operation. The determinism contract
//    under concurrency: any individual request's RESULT is byte-identical
//    whether served solo or interleaved with others (cached values are the
//    exact bits a cold computation produced, and misses recompute them
//    from scratch — cache state can change WHICH work runs, never its
//    outcome). Only LRU recency — and therefore which entries an eviction
//    removes, and hit/miss counter values — may vary across interleavings.
//    tests/concurrent_session_test.cpp pins this contract under
//    ThreadSanitizer.
#pragma once

#include <memory>
#include <mutex>

#include "shg/customize/cache.hpp"
#include "shg/customize/incremental.hpp"

namespace shg::customize {

/// Threading contract of one session (see the file comment for the full
/// determinism argument). Referenced as `Session::ConcurrencyMode`.
enum class ConcurrencyMode {
  /// One thread of control, no locking, one LRU per tier — bit-identical
  /// to the pre-concurrency session (eviction order included).
  kSingleThread,
  /// Concurrent readers/writers over sharded lock-protected tiers. Request
  /// results stay byte-identical to their solo runs; only LRU recency (and
  /// thus eviction victims and counter values) may vary with interleaving.
  kSharded,
};

/// Knobs of one session.
struct SessionOptions {
  /// Threading contract; kSharded makes every tier concurrency-safe.
  ConcurrencyMode concurrency = ConcurrencyMode::kSingleThread;
  /// Shard count of the candidate and simulation-result tiers under
  /// kSharded (ignored — forced to 1 — under kSingleThread). More shards
  /// mean less lock contention; the fingerprint-prefix mapping spreads
  /// keys uniformly.
  std::size_t shards = 8;
  /// Candidate-tier LRU capacity, in entries (48 B each plus index
  /// overhead; the default comfortably holds every candidate of a
  /// 2-skips-per-dimension exploration sweep hundreds of times over).
  std::size_t capacity = std::size_t{1} << 16;
  /// Artifact-tier LRU capacity, in artifacts (route tables, cost
  /// reports; each may be MBs — keep this small).
  std::size_t artifact_capacity = 64;
  /// Simulation-result-tier LRU capacity, in cells (112 B each on disk;
  /// the default holds the largest Figure-6-class campaign hundreds of
  /// times over).
  std::size_t sim_capacity = std::size_t{1} << 16;
  /// On-disk tier for the candidate cache; empty = memory-only.
  std::string cache_path;
  /// On-disk tier for the simulation-result cache (a campaign's cache
  /// file, or one worker's shard file); empty = memory-only.
  std::string sim_cache_path;
  /// Load `cache_path` / `sim_cache_path` on construction (no-op when a
  /// file is absent; corrupt files are discarded with a warning).
  bool autoload = true;
  /// Save `cache_path` / `sim_cache_path` on destruction (best effort;
  /// never throws).
  bool autosave = true;
};

/// Cross-invocation reuse state. See the file comment.
class Session {
 public:
  /// The session's threading contract (customize::ConcurrencyMode).
  using ConcurrencyMode = customize::ConcurrencyMode;

  explicit Session(SessionOptions options = {});
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const SessionOptions& options() const { return options_; }
  ConcurrencyMode concurrency() const { return options_.concurrency; }

  // -- Candidate tier -------------------------------------------------------

  /// Cached screening metrics for `key`, or nullopt. Hits refresh recency.
  std::optional<CandidateMetrics> lookup(const Fingerprint& key) {
    return cache_.lookup(key);
  }
  /// Stores a screened result (evicting LRU entries beyond capacity).
  void store(const Fingerprint& key, const CandidateMetrics& metrics) {
    cache_.insert(key, metrics);
  }

  CacheStats stats() const { return cache_.stats(); }
  CandidateCache& cache() { return cache_; }

  /// Loads the on-disk tier now (also called by the constructor when
  /// `autoload`); returns entries adopted, 0 on absent/discarded files.
  std::size_t load();
  /// Saves the candidate tier to `options().cache_path`; returns entries
  /// written (0 when no path is configured or the write failed).
  std::size_t save();

  // -- Simulation-result tier -----------------------------------------------

  /// Cached simulation result for an experiment-cell key
  /// (fingerprint_sim_cell), or nullopt. Hits refresh recency and return
  /// the exact bits the cold simulation produced.
  std::optional<sim::SimResult> lookup_sim(const Fingerprint& key) {
    return sim_results_.lookup(key);
  }
  /// Stores one simulated cell (evicting LRU entries beyond capacity).
  void store_sim(const Fingerprint& key, const sim::SimResult& result) {
    sim_results_.insert(key, result);
  }

  CacheStats sim_stats() const { return sim_results_.stats(); }
  /// Direct tier access: campaign drivers merge shard files with
  /// `sim_cache().load_file(shard_path)` and write per-shard files with
  /// `sim_cache().save_file(...)` (repeated loads merge; corrupt shards
  /// are discarded with a warning and the affected cells simulate cold).
  SimResultCache& sim_cache() { return sim_results_; }

  /// Loads `options().sim_cache_path` now (also called by the constructor
  /// when `autoload`); returns cells adopted.
  std::size_t load_sim();
  /// Saves the result tier to `options().sim_cache_path`; returns cells
  /// written (0 when no path is configured or the write failed).
  std::size_t save_sim();

  // -- Artifact tier --------------------------------------------------------

  /// Shared immutable artifact for `key`, or null. Hits refresh recency.
  /// Callers static_pointer_cast to the type their keying convention
  /// guarantees (see file comment). Thread-safe under kSharded (one mutex
  /// guards the tier; artifacts themselves are immutable by contract).
  std::shared_ptr<const void> find_artifact(const Fingerprint& key);
  void store_artifact(const Fingerprint& key,
                      std::shared_ptr<const void> artifact);
  std::uint64_t artifact_hits() const;
  std::uint64_t artifact_misses() const;

 private:
  struct Artifact {
    Fingerprint key;
    std::shared_ptr<const void> value;
    std::uint64_t last_used = 0;
  };

  std::unique_lock<std::mutex> artifact_guard() const;

  SessionOptions options_;
  CandidateCache cache_;
  SimResultCache sim_results_;
  std::vector<Artifact> artifacts_;  ///< tiny; linear scan, tick-stamped LRU
  std::uint64_t artifact_tick_ = 0;
  std::uint64_t artifact_hits_ = 0;
  std::uint64_t artifact_misses_ = 0;
  mutable std::mutex artifact_mutex_;  ///< armed under kSharded only
};

/// Per-call accounting of one screen_batch_cached invocation (unlike the
/// session-lifetime CacheStats, these are exact for this call even when
/// other threads drive the same session concurrently).
struct ScreenBatchStats {
  std::size_t hits = 0;    ///< batch entries served from the candidate tier
  std::size_t misses = 0;  ///< batch entries screened (routing ran)
  /// Per-batch-index hit flags (hit[i] == true when batch[i] came from the
  /// tier), for callers that account per entry — the serve layer's
  /// coalesced screen responses report each request's own hit/miss.
  /// Duplicate keys within one batch all miss together (the forest screens
  /// them once), whereas served one by one only the first would miss.
  std::vector<bool> hit;
};

/// Screens `batch` through the session cache: hits come from the cache,
/// misses are screened together with `screen_batch_incremental` and stored.
/// The result is indexed like the input and bit-identical to a session-free
/// screen of the same batch. `stats`, when non-null, receives this call's
/// exact hit/miss split.
std::vector<CandidateMetrics> screen_batch_cached(
    const tech::ArchParams& arch, const std::vector<topo::ShgParams>& batch,
    Session& session, ScreenBatchStats* stats = nullptr);

}  // namespace shg::customize
