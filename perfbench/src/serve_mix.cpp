// serve_mix: a resident server (serve::Server::serve_stream, 4 pool
// workers) over an in-process socketpair, driven by one client thread in a
// closed loop that keeps at most 4 requests in flight and sends the next
// one only after a reply. The seed generates the request stream:
//   90% screen over KNC scenarios a-d — a fifth are new skip sets (tier
//       writes), the rest repeat earlier requests (tier reads);
//    7% customize over the MemPool architecture at five area budgets;
//    3% 8x8 smoke experiments whose cell sets partly overlap.
// The customize and experiment requests, and their places in the stream,
// are the same for every seed; the seed draws the screens.
// A request that repeats an earlier one, and every experiment, is sent
// only once the request it depends on (the original; the previous
// experiment) has replied, so each tier hit and miss is exact.
// Every pass starts a fresh server, so the tiers start cold each time.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "shg/serve/json.hpp"
#include "shg/serve/server.hpp"

namespace perfbench {
namespace {

using namespace shg;

constexpr int kRequests = 2000;
constexpr int kCustomizes = 140;
constexpr int kExperiments = 60;
constexpr int kNewScreens = (kRequests - kCustomizes - kExperiments) / 5;
constexpr int kWindow = 4;
constexpr int kWorkers = 4;

enum class Kind { kScreen, kCustomize, kExperiment };
const char* const kKindNames[] = {"screen", "customize", "experiment"};

struct Request {
  Kind kind = Kind::kScreen;
  std::string body;  ///< the request line after the id member
  int depends_on = -1;
  int original = -1;  ///< first request with the same body
};

std::string int_list(const std::set<int>& values) {
  std::string out = "[";
  for (int v : values) {
    if (out.size() > 1) out += ',';
    out += std::to_string(v);
  }
  return out + "]";
}

/// `count` distinct values drawn from [lo, hi].
std::set<int> draw_set(InputRng& rng, int count, int lo, int hi) {
  std::set<int> values;
  while (static_cast<int>(values.size()) < count) {
    values.insert(lo + rng.below(hi - lo + 1));
  }
  return values;
}

template <typename T>
void shuffle(std::vector<T>& items, InputRng& rng) {
  for (int i = static_cast<int>(items.size()) - 1; i > 0; --i) {
    std::swap(items[static_cast<std::size_t>(i)],
              items[static_cast<std::size_t>(rng.below(i + 1))]);
  }
}

/// The fixed customize and experiment requests: their time dominates a
/// pass, so every seed gets the same ones. Experiments cycle through the three traffic patterns, 20 of
/// the 28 pairs of rates 0.02..0.16, and 1 or 2 seeds, so cells overlap.
std::vector<std::string> heavy_bodies(Kind kind) {
  std::vector<std::string> bodies;
  if (kind == Kind::kCustomize) {
    static const char* const kBudgets[] = {"0.3", "0.35", "0.4", "0.45", "0.5"};
    for (int i = 0; i < kCustomizes; ++i) {
      bodies.push_back(std::string(
                           "\"op\":\"customize\",\"scenario\":\"mempool\","
                           "\"max_area_overhead\":") +
                       kBudgets[i % 5]);
    }
    return bodies;
  }
  static const char* const kTraffic[] = {"uniform", "transpose",
                                         "hotspot:0,7:0.2"};
  std::vector<std::string> pairs;
  for (int a = 1; a <= 8; ++a) {
    for (int b = a + 1; b <= 8; ++b) {
      const auto rate = [](int r) {
        return (r < 5 ? "0.0" : "0.") + std::to_string(2 * r);
      };
      pairs.push_back("[" + rate(a) + "," + rate(b) + "]");
    }
  }
  for (int i = 0; i < kExperiments; ++i) {
    bodies.push_back(std::string(
                         "\"op\":\"experiment\",\"grid\":\"8x8\","
                         "\"traffic\":[\"") +
                     kTraffic[i % 3] + "\"],\"rates\":" +
                     pairs[static_cast<std::size_t>((i / 3) * 3 % 28)] +
                     ",\"seeds\":" + std::to_string(1 + i % 2) +
                     ",\"smoke\":true");
  }
  return bodies;
}

std::vector<Request> make_stream(int variant) {
  // Where the heavy requests sit decides how they overlap, which moves the
  // tail latency by more than a bound allows, so their placement and order
  // come from a fixed generator; the seed draws the screens.
  InputRng fixed(0x5e7eULL);
  std::vector<Kind> kinds(kRequests, Kind::kScreen);
  for (int i = 0; i < kCustomizes; ++i) kinds[i] = Kind::kCustomize;
  for (int i = 0; i < kExperiments; ++i) kinds[kCustomizes + i] = Kind::kExperiment;
  shuffle(kinds, fixed);
  std::vector<std::string> customizes = heavy_bodies(Kind::kCustomize);
  std::vector<std::string> experiments = heavy_bodies(Kind::kExperiment);
  shuffle(customizes, fixed);
  shuffle(experiments, fixed);
  InputRng rng(0x5e7eULL + 1 + static_cast<std::uint64_t>(variant));
  // Which screens are new: the first always, then a shuffled remainder.
  std::vector<char> fresh(kRequests - kCustomizes - kExperiments - 1, 0);
  std::fill(fresh.begin(), fresh.begin() + (kNewScreens - 1), 1);
  shuffle(fresh, rng);
  fresh.insert(fresh.begin(), 1);

  std::vector<Request> stream;
  std::map<std::string, int> first_with_body;
  std::vector<int> screens;
  std::size_t screen_no = 0;
  int last_experiment = -1;
  static const char* const kScenarios[] = {"a", "b", "c", "d"};
  for (int i = 0; i < kRequests; ++i) {
    Request request;
    request.kind = kinds[static_cast<std::size_t>(i)];
    switch (request.kind) {
      case Kind::kScreen:
        if (fresh[screen_no++]) {
          // KNC a/b are 8x8, c/d 8x16; row skips span columns.
          do {
            const int scenario = rng.below(4);
            const int cols = scenario < 2 ? 8 : 16;
            request.body =
                std::string("\"op\":\"screen\",\"scenario\":\"") +
                kScenarios[scenario] + "\",\"row_skips\":" +
                int_list(draw_set(rng, 1 + rng.below(3), 2, cols - 1)) +
                ",\"col_skips\":" +
                int_list(draw_set(rng, 1 + rng.below(3), 2, 7));
          } while (first_with_body.count(request.body) != 0);
        } else {
          const int earlier = rng.below(static_cast<int>(screens.size()));
          request.body =
              stream[static_cast<std::size_t>(
                         screens[static_cast<std::size_t>(earlier)])]
                  .body;
        }
        screens.push_back(i);
        break;
      case Kind::kCustomize:
        request.body = customizes.back();
        customizes.pop_back();
        break;
      case Kind::kExperiment:
        request.body = experiments.back();
        experiments.pop_back();
        request.depends_on = last_experiment;
        last_experiment = i;
        break;
    }
    const auto [it, inserted] = first_with_body.emplace(request.body, i);
    request.original = it->second;
    if (!inserted && request.depends_on < 0) request.depends_on = it->second;
    stream.push_back(std::move(request));
  }
  return stream;
}

/// Reads newline-terminated lines from a blocking fd.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}
  bool next(std::string& line) {
    while (true) {
      const std::size_t end = buffer_.find('\n', scanned_);
      if (end != std::string::npos) {
        line.assign(buffer_, 0, end);
        buffer_.erase(0, end + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

void write_line(int fd, const std::string& line) {
  std::size_t done = 0;
  while (done < line.size()) {
    const ssize_t n = ::write(fd, line.data() + done, line.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("request write failed");
    done += static_cast<std::size_t>(n);
  }
}

struct Reply {
  bool received = false;
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;
  double execute_ms = 0.0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::string result;
};

serve::ServerOptions server_options() {
  serve::ServerOptions options;
  options.workers = kWorkers;
  return options;
}

/// One socketpair stream served by `server` on its own thread. The
/// destructor ends the stream (EOF drains it) and joins the thread.
class Connection {
 public:
  explicit Connection(serve::Server& server) {
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
      throw std::runtime_error("socketpair failed");
    }
    reader_ = LineReader(fds_[0]);
    try {
      thread_ = std::thread(
          [&server, fd = fds_[1]] { server.serve_stream(fd, fd); });
    } catch (...) {
      ::close(fds_[0]);
      ::close(fds_[1]);
      throw;
    }
  }
  ~Connection() {
    ::shutdown(fds_[0], SHUT_WR);
    thread_.join();
    ::close(fds_[0]);
    ::close(fds_[1]);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& line) { write_line(fds_[0], line); }
  std::string receive() {
    std::string line;
    if (!reader_.next(line)) throw std::runtime_error("stream closed early");
    return line;
  }

 private:
  int fds_[2] = {-1, -1};
  LineReader reader_{-1};
  std::thread thread_;
};

class ServeMix : public Workload {
 public:
  explicit ServeMix(int variant) : stream_(make_stream(variant)) {}

  /// Set-up: server and session construction.
  std::optional<double> setup_sample() override {
    const Clock::time_point start = Clock::now();
    const serve::Server server(server_options());
    return seconds_since(start);
  }

  Iteration iterate(Tracer* tracer) override {
    Iteration it;
    replies_.assign(stream_.size(), Reply{});
    const Clock::time_point start = Clock::now();
    std::optional<serve::Server> server;
    {
      Tracer::Scope span(tracer, "serve", "server.construct");
      server.emplace(server_options());
    }
    it.setup_s = seconds_since(start);
    try {
      Tracer::Scope span(tracer, "serve", "serve_stream");
      Connection connection(*server);
      drive(connection);
    } catch (const std::exception& e) {
      fail(it, std::string("client: ") + e.what());
    }
    {
      Tracer::Scope span(tracer, "bench", "validate");
      validate(it);
    }
    it.wall_s = seconds_since(start);
    return it;
  }

  void probe(Tracer& tracer, LayerMetrics& out, Iteration&) override {
    std::vector<double> execute[3], wait;
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      execute[static_cast<int>(stream_[i].kind)].push_back(replies_[i].execute_ms);
      wait.push_back(replies_[i].latency_ms - replies_[i].execute_ms);
    }
    for (int k = 0; k < 3; ++k) {
      const std::string prefix = std::string("serve.execute_ms.") + kKindNames[k];
      out[prefix + ".p50"] = median(execute[k]);
      out[prefix + ".p99"] = percentile(execute[k], 0.99);
    }
    out["serve.wait_ms.p50"] = median(wait);
    out["serve.wait_ms.p99"] = percentile(wait, 0.99);
    out["tier.candidate_hit_ratio"] =
        static_cast<double>(candidate_hits_) / (candidate_hits_ + candidate_misses_);
    out["tier.sim_hit_ratio"] =
        static_cast<double>(sim_hits_) / (sim_hits_ + sim_misses_);

    const serve::Service service;
    const Clock::time_point start = Clock::now();
    {
      Tracer::Scope span(&tracer, "serve", "parse_request");
      for (std::size_t i = 0; i < stream_.size(); ++i) {
        service.parse_request(line(i));
      }
    }
    out["serve.parse_us"] = seconds_since(start) * 1e6 / stream_.size();
  }

 private:
  std::string line(std::size_t i) const {
    return "{\"id\":" + std::to_string(i) + "," + stream_[i].body + "}\n";
  }

  /// The closed-loop client: at most kWindow requests in flight; a request
  /// whose dependency has not replied yet waits (holding its slot).
  void drive(Connection& connection) {
    std::vector<Clock::time_point> sent(stream_.size());
    std::size_t next = 0;
    int in_flight = 0;
    for (std::size_t received = 0; received < stream_.size(); ++received) {
      while (in_flight < kWindow && next < stream_.size()) {
        const int dep = stream_[next].depends_on;
        if (dep >= 0 && !replies_[static_cast<std::size_t>(dep)].received) break;
        sent[next] = Clock::now();
        connection.send(line(next));
        ++next;
        ++in_flight;
      }
      const std::string reply = connection.receive();
      const Clock::time_point now = Clock::now();
      const std::size_t id = record(reply);
      replies_[id].latency_ms =
          std::chrono::duration<double, std::milli>(now - sent[id]).count();
      --in_flight;
    }
  }

  /// Parses one reply into replies_; returns its request index.
  std::size_t record(const std::string& text) {
    const serve::JsonValue doc = serve::JsonValue::parse(text);
    const long long id = doc.find("id")->as_int();
    if (id < 0 || id >= static_cast<long long>(stream_.size()) ||
        replies_[static_cast<std::size_t>(id)].received) {
      throw std::runtime_error("unexpected reply id");
    }
    Reply& reply = replies_[static_cast<std::size_t>(id)];
    reply.received = true;
    reply.ok = doc.find("ok")->as_bool();
    if (const serve::JsonValue* error = doc.find("error")) {
      reply.error = error->as_string();
    }
    reply.execute_ms = doc.find("elapsed_us")->as_double() / 1000.0;
    if (const serve::JsonValue* counters = doc.find("counters")) {
      reply.hits = static_cast<std::uint64_t>(counters->find("hits")->as_int());
      reply.misses =
          static_cast<std::uint64_t>(counters->find("misses")->as_int());
    }
    // "result" is the last member of a reply line.
    const std::string key = ",\"result\":";
    const std::size_t at = text.find(key);
    if (at != std::string::npos) {
      reply.result = text.substr(at + key.size(),
                                 text.size() - at - key.size() - 1);
    }
    return static_cast<std::size_t>(id);
  }

  void validate(Iteration& it) {
    it.attempted = stream_.size();
    Digest digest;
    candidate_hits_ = candidate_misses_ = sim_hits_ = sim_misses_ = 0;
    for (std::size_t i = 0; i < stream_.size(); ++i) {
      const Reply& reply = replies_[i];
      it.op_ms.push_back(reply.latency_ms);
      digest.str(reply.result);
      if (!reply.received || !reply.ok || reply.result.empty()) {
        fail(it, "request " + std::to_string(i) + " failed: " + reply.error);
        continue;
      }
      const std::size_t original = static_cast<std::size_t>(stream_[i].original);
      if (reply.result != replies_[original].result) {
        fail(it, "request " + std::to_string(i) +
                     " differs from the identical request " +
                     std::to_string(original));
      }
      if (stream_[i].kind == Kind::kScreen) {
        candidate_hits_ += reply.hits;
        candidate_misses_ += reply.misses;
      } else if (stream_[i].kind == Kind::kExperiment) {
        sim_hits_ += reply.hits;
        sim_misses_ += reply.misses;
      }
    }
    it.digest = digest.value();
    it.work = static_cast<double>(stream_.size());
    it.counters = {{"serve.requests", stream_.size()},
                   {"tier.candidate_hits", candidate_hits_},
                   {"tier.candidate_misses", candidate_misses_},
                   {"tier.sim_hits", sim_hits_},
                   {"tier.sim_misses", sim_misses_},
                   {"experiment.cells", sim_hits_ + sim_misses_}};
  }

  std::vector<Request> stream_;
  std::vector<Reply> replies_;
  std::uint64_t candidate_hits_ = 0, candidate_misses_ = 0;
  std::uint64_t sim_hits_ = 0, sim_misses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(int variant) {
  return std::make_unique<ServeMix>(variant);
}

}  // namespace perfbench
