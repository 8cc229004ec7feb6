// Tests for the serving layer (src/shg/serve/): the minimal JSON parser,
// the op dispatch of Service, protocol error handling (including the
// server's request-line cap), and the coalesced screen path — each service
// result is checked against the direct library call it must match byte for
// byte.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "shg/common/error.hpp"
#include "shg/customize/search.hpp"
#include "shg/customize/session.hpp"
#include "shg/eval/experiment.hpp"
#include "shg/serve/json.hpp"
#include "shg/serve/server.hpp"
#include "shg/serve/service.hpp"
#include "shg/tech/presets.hpp"

namespace shg::serve {
namespace {

// --- JSON parser -----------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").as_bool(), true);
  EXPECT_EQ(JsonValue::parse("false").as_bool(), false);
  EXPECT_EQ(JsonValue::parse("42").as_int(), 42);
  EXPECT_EQ(JsonValue::parse("-7.5e2").as_double(), -750.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const JsonValue doc = JsonValue::parse(
      "{\"a\": [1, 2, {\"b\": \"x\"}], \"c\": {\"d\": null}} ");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].as_int(), 1);
  EXPECT_EQ(a->items()[2].find("b")->as_string(), "x");
  EXPECT_TRUE(doc.find("c")->find("d")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, PreservesMemberOrder) {
  const JsonValue doc = JsonValue::parse("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_EQ(doc.members().size(), 3u);
  EXPECT_EQ(doc.members()[0].first, "z");
  EXPECT_EQ(doc.members()[1].first, "a");
  EXPECT_EQ(doc.members()[2].first, "m");
}

TEST(Json, UnescapesStrings) {
  EXPECT_EQ(JsonValue::parse("\"a\\n\\t\\\"b\\\\c\\/\"").as_string(),
            "a\n\t\"b\\c/");
  EXPECT_EQ(JsonValue::parse("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  // Surrogate pair: U+1F600 -> 4-byte UTF-8.
  EXPECT_EQ(JsonValue::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",           "[1,",          "{\"a\":}",
      "tru",        "\"unclosed",  "1.2.3",        "01",
      "1e",         "-",           "{\"a\" 1}",    "[1] trailing",
      "\"\\q\"",    "\"\\ud800\"", "\"\\u12g4\"",  "nan",
      "infinity",   "{,}",         "[1,,2]",       "'single'",
  };
  for (const char* text : bad) {
    EXPECT_THROW(JsonValue::parse(text), Error) << "input: " << text;
  }
}

TEST(Json, RejectsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  EXPECT_THROW(JsonValue::parse(deep), Error);
}

TEST(Json, AsIntRejectsNonIntegers) {
  EXPECT_THROW(JsonValue::parse("1.5").as_int(), Error);
  EXPECT_THROW(JsonValue::parse("1e300").as_int(), Error);
  EXPECT_EQ(JsonValue::parse("-3").as_int(), -3);
}

TEST(Json, QuoteRoundTripsThroughParse) {
  const std::string nasty = "line\nwith \"quotes\", back\\slash, tab\t, "
                            "control\x01 bytes and utf-8 \xc3\xa9";
  EXPECT_EQ(JsonValue::parse(json_quote(nasty)).as_string(), nasty);
}

TEST(Json, DoubleFormatsShortestRoundTrip) {
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(json_double(2.0), "2");
  EXPECT_EQ(json_double(0.1), "0.1");
  for (double value : {0.1, 1.0 / 3.0, 2.416193181818182, 1e-300, -5.5}) {
    EXPECT_EQ(JsonValue::parse(json_double(value)).as_double(), value);
  }
}

// --- Request parsing -------------------------------------------------------

TEST(Service, ParsesScreenRequest) {
  Service service;
  const Request request = service.parse_request(
      "{\"op\":\"screen\",\"id\":\"r1\",\"scenario\":\"b\","
      "\"row_skips\":[2,4],\"col_skips\":[3]}");
  ASSERT_TRUE(request.valid) << request.error;
  EXPECT_EQ(request.op, Op::kScreen);
  EXPECT_EQ(request.id_json, "\"r1\"");
  EXPECT_EQ(request.scenario, "b");
  EXPECT_EQ(request.params.row_skips, (std::set<int>{2, 4}));
  EXPECT_EQ(request.params.col_skips, (std::set<int>{3}));
}

TEST(Service, MalformedLinesAreInvalidNotFatal) {
  Service service;
  const char* bad[] = {
      "not json",
      "[1,2,3]",                                    // not an object
      "{\"id\":1}",                                 // missing op
      "{\"op\":\"frobnicate\"}",                    // unknown op
      "{\"op\":\"screen\",\"scneario\":\"a\"}",     // typo'd field
      "{\"op\":\"screen\",\"row_skips\":[99]}",     // out-of-range skip
      "{\"op\":\"screen\",\"scenario\":\"z\"}",     // unknown scenario
      "{\"op\":\"ping\",\"id\":[1]}",               // non-scalar id
      "{\"op\":\"experiment\",\"grid\":\"1x1\"}",   // grid too small
      "{\"op\":\"experiment\",\"rates\":[2.0]}",    // rate out of (0,1]
      "{\"op\":\"experiment\",\"seeds\":0}",        // seeds < 1
      "{\"op\":\"customize\",\"max_area_overhead\":0}",
      "{\"op\":\"customize\",\"max_area_overhead\":1.0}",  // lib needs < 1
  };
  for (const char* line : bad) {
    const Request request = service.parse_request(line);
    EXPECT_FALSE(request.valid) << "line: " << line;
    EXPECT_FALSE(request.error.empty()) << "line: " << line;
    const Response response = service.execute(request);
    EXPECT_FALSE(response.ok) << "line: " << line;
    const std::string rendered = response.to_line();
    EXPECT_NE(rendered.find("\"ok\":false"), std::string::npos);
    // Every reply is itself valid JSON.
    EXPECT_NO_THROW(JsonValue::parse(rendered)) << rendered;
  }
  // A budget customize_greedy would reject fails at parse time, naming the
  // field.
  const Request budget = service.parse_request(
      "{\"op\":\"customize\",\"max_area_overhead\":1.0}");
  EXPECT_NE(budget.error.find("max_area_overhead"), std::string::npos)
      << budget.error;
}

TEST(Service, ErrorRepliesKeepTheRequestId) {
  Service service;
  const Response response = service.execute(
      service.parse_request("{\"op\":\"nope\",\"id\":\"req-9\"}"));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.id_json, "\"req-9\"");
  EXPECT_NE(response.to_line().find("\"id\":\"req-9\""), std::string::npos);
}

// --- Op execution ----------------------------------------------------------

TEST(Service, PingAndShutdown) {
  Service service;
  EXPECT_FALSE(service.shutdown_requested());
  const Response pong =
      service.execute(service.parse_request("{\"op\":\"ping\",\"id\":1}"));
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.result_json, "{\"pong\":true}");
  const Response stop =
      service.execute(service.parse_request("{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(stop.ok);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(Service, ScreenMatchesDirectLibraryCall) {
  Service service;
  const Response response = service.execute(service.parse_request(
      "{\"op\":\"screen\",\"id\":\"s\",\"scenario\":\"a\","
      "\"row_skips\":[4],\"col_skips\":[2,5]}"));
  ASSERT_TRUE(response.ok) << response.error;
  EXPECT_TRUE(response.has_counters);
  EXPECT_EQ(response.op_hits, 0u);
  EXPECT_EQ(response.op_misses, 1u);

  const tech::ArchParams arch = tech::knc_scenario(tech::KncScenario::kA);
  const customize::CandidateMetrics direct =
      customize::screen_candidate(arch, topo::ShgParams{{4}, {2, 5}});
  const JsonValue result = JsonValue::parse(response.result_json);
  const JsonValue* metrics = result.find("metrics");
  ASSERT_NE(metrics, nullptr);
  // Bit-exact: json_double round-trips the exact double.
  EXPECT_EQ(metrics->find("area_overhead")->as_double(), direct.area_overhead);
  EXPECT_EQ(metrics->find("avg_hops")->as_double(), direct.avg_hops);
  EXPECT_EQ(metrics->find("diameter")->as_double(), direct.diameter);
  EXPECT_EQ(metrics->find("throughput_bound")->as_double(),
            direct.throughput_bound);

  // A repeat is a tier hit with identical result bytes.
  const Response warm = service.execute(service.parse_request(
      "{\"op\":\"screen\",\"id\":\"s2\",\"scenario\":\"a\","
      "\"row_skips\":[4],\"col_skips\":[2,5]}"));
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.op_hits, 1u);
  EXPECT_EQ(warm.op_misses, 0u);
  EXPECT_EQ(warm.result_json, response.result_json);
}

TEST(Service, CoalescedScreenBatchMatchesSoloResponses) {
  // Solo twins on one service...
  Service solo;
  std::vector<Request> requests;
  std::vector<std::string> solo_results;
  for (int skip = 2; skip <= 6; ++skip) {
    const std::string line =
        "{\"op\":\"screen\",\"id\":" + std::to_string(skip) +
        ",\"scenario\":\"a\",\"row_skips\":[" + std::to_string(skip) + "]}";
    requests.push_back(solo.parse_request(line));
    ASSERT_TRUE(requests.back().valid);
    solo_results.push_back(solo.execute(requests.back()).result_json);
  }
  // ...must equal one coalesced batch on a fresh service, byte for byte.
  Service batched;
  const std::vector<Response> responses =
      batched.execute_screen_batch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].error;
    EXPECT_EQ(responses[i].result_json, solo_results[i]);
    EXPECT_EQ(responses[i].id_json, requests[i].id_json);
    EXPECT_EQ(responses[i].op_misses, 1u);  // all cold, screened together
  }
}

TEST(Service, CustomizeMatchesDirectSearch) {
  Service service;
  const Response response = service.execute(service.parse_request(
      "{\"op\":\"customize\",\"id\":\"c\",\"scenario\":\"a\","
      "\"max_area_overhead\":0.3}"));
  ASSERT_TRUE(response.ok) << response.error;

  customize::SearchOptions options;  // session-free reference run
  const customize::SearchResult direct = customize::customize_greedy(
      tech::knc_scenario(tech::KncScenario::kA), customize::Goal{0.3},
      options);
  const JsonValue result = JsonValue::parse(response.result_json);
  std::set<int> row_skips;
  for (const JsonValue& v : result.find("row_skips")->items()) {
    row_skips.insert(static_cast<int>(v.as_int()));
  }
  std::set<int> col_skips;
  for (const JsonValue& v : result.find("col_skips")->items()) {
    col_skips.insert(static_cast<int>(v.as_int()));
  }
  EXPECT_EQ(row_skips, direct.params.row_skips);
  EXPECT_EQ(col_skips, direct.params.col_skips);
  EXPECT_EQ(result.find("steps")->as_int(),
            static_cast<long long>(direct.history.size()));
  EXPECT_EQ(result.find("metrics")->find("throughput_bound")->as_double(),
            direct.metrics.throughput_bound);
}

TEST(Service, ExperimentPayloadMatchesBatchEngine) {
  Service service;
  const Response response = service.execute(service.parse_request(
      "{\"op\":\"experiment\",\"id\":\"e\",\"grid\":\"6x6\","
      "\"traffic\":[\"uniform\"],\"rates\":[0.05],\"seeds\":1,"
      "\"smoke\":true}"));
  ASSERT_TRUE(response.ok) << response.error;

  CampaignParams params;
  params.rows = 6;
  params.cols = 6;
  params.traffic = {"uniform"};
  params.rates = {0.05};
  params.num_seeds = 1;
  params.smoke = true;
  eval::ExperimentSpec spec = make_campaign_spec(params);
  const std::string direct = eval::experiment_to_json(eval::run_experiment(spec));

  // The embedded report unescapes to the batch engine's exact bytes.
  const JsonValue result = JsonValue::parse(response.result_json);
  ASSERT_NE(result.find("report"), nullptr);
  EXPECT_EQ(result.find("report")->as_string(), direct);

  // Cold counters: every cell simulated; warm repeat: none.
  EXPECT_TRUE(response.has_counters);
  EXPECT_EQ(response.op_hits, 0u);
  EXPECT_GT(response.op_simulated, 0u);
  const Response warm = service.execute(service.parse_request(
      "{\"op\":\"experiment\",\"id\":\"e2\",\"grid\":\"6x6\","
      "\"traffic\":[\"uniform\"],\"rates\":[0.05],\"seeds\":1,"
      "\"smoke\":true}"));
  ASSERT_TRUE(warm.ok);
  EXPECT_EQ(warm.op_simulated, 0u);
  EXPECT_EQ(warm.result_json, response.result_json);
}

TEST(Service, ResponseLineShapeIsStable) {
  Service service;
  const Response response =
      service.execute(service.parse_request("{\"op\":\"ping\",\"id\":7}"));
  const std::string line = response.to_line();
  const JsonValue parsed = JsonValue::parse(line);
  EXPECT_EQ(parsed.find("id")->as_int(), 7);
  EXPECT_EQ(parsed.find("op")->as_string(), "ping");
  EXPECT_TRUE(parsed.find("ok")->as_bool());
  EXPECT_NE(parsed.find("elapsed_us"), nullptr);
  const JsonValue* tiers = parsed.find("tiers");
  ASSERT_NE(tiers, nullptr);
  EXPECT_NE(tiers->find("candidate"), nullptr);
  EXPECT_NE(tiers->find("sim"), nullptr);
  EXPECT_NE(tiers->find("artifact"), nullptr);
}

TEST(Service, CampaignSpecDefaultsMatchTheBatchDriver) {
  // The shared builder IS the campaign of examples/experiment_campaign.cpp;
  // pin the spec shape so a drive-by edit cannot silently fork the two.
  const eval::ExperimentSpec spec = make_campaign_spec(CampaignParams{});
  EXPECT_EQ(spec.name, "campaign-8x8");
  ASSERT_EQ(spec.topologies.size(), 3u);
  EXPECT_EQ(spec.traffic.size(), 3u);
  EXPECT_EQ(spec.rates.size(), 4u);
  EXPECT_EQ(spec.seeds.size(), 3u);
  EXPECT_EQ(spec.config.sim.num_vcs, 2);
  EXPECT_EQ(spec.config.sim.buffer_depth_flits, 8);
  EXPECT_EQ(spec.config.sim.warmup_cycles, 500);
  EXPECT_EQ(spec.config.sim.routing_policy, sim::RoutingPolicy::kMinimal);
}

TEST(Service, ExperimentRoutingFieldSelectsUgalCampaign) {
  Service service;
  const Request request = service.parse_request(
      "{\"op\":\"experiment\",\"id\":1,\"grid\":\"6x6\","
      "\"traffic\":[\"uniform\"],\"rates\":[0.05],\"seeds\":1,"
      "\"smoke\":true,\"routing\":\"ugal\"}");
  ASSERT_TRUE(request.valid) << request.error;
  EXPECT_EQ(request.campaign.routing, "ugal");

  // The shared builder flips the policy, raises the VC count to the UGAL
  // floor (2 escape + 2 adaptive classes), and tags the campaign name so
  // reports from the two policies can never be confused.
  const eval::ExperimentSpec spec = make_campaign_spec(request.campaign);
  EXPECT_EQ(spec.config.sim.routing_policy, sim::RoutingPolicy::kUgal);
  EXPECT_EQ(spec.config.sim.num_vcs, 4);
  EXPECT_EQ(spec.name, "campaign-6x6-ugal");

  // Bad policy spellings are rejected at parse time, naming the offender.
  const Request bad = service.parse_request(
      "{\"op\":\"experiment\",\"id\":2,\"routing\":\"adaptive\"}");
  EXPECT_FALSE(bad.valid);
  EXPECT_NE(bad.error.find("adaptive"), std::string::npos) << bad.error;
}

TEST(Server, OverlongLineIsRejectedAndServingContinues) {
  // A 2 MiB line (twice the cap) and then a ping: the server answers the
  // long line with one error, drops its bytes, and still serves the ping.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ServerOptions options;
  options.workers = 1;
  Server server(options);
  std::thread serving([&] {
    server.serve_stream(fds[1], fds[1]);
    ::shutdown(fds[1], SHUT_WR);
  });
  std::thread client([&] {
    const std::string input = std::string(2 * kMaxRequestLineBytes, 'x') +
                              "\n{\"op\":\"ping\",\"id\":2}\n";
    for (std::size_t done = 0; done < input.size();) {
      const ssize_t n =
          ::write(fds[0], input.data() + done, input.size() - done);
      if (n <= 0) {
        ADD_FAILURE() << "write to the server failed";
        break;
      }
      done += static_cast<std::size_t>(n);
    }
    ::shutdown(fds[0], SHUT_WR);  // EOF ends the stream either way
  });
  std::string output;
  char chunk[4096];
  for (ssize_t n; (n = ::read(fds[0], chunk, sizeof(chunk))) > 0;) {
    output.append(chunk, static_cast<std::size_t>(n));
  }
  client.join();
  serving.join();
  ::close(fds[0]);
  ::close(fds[1]);

  std::vector<std::string> lines;
  for (std::size_t start = 0, nl; (nl = output.find('\n', start)) !=
                                  std::string::npos;
       start = nl + 1) {
    lines.push_back(output.substr(start, nl - start));
  }
  ASSERT_EQ(lines.size(), 2u) << output;
  int errors = 0;
  int pings = 0;
  for (const std::string& line : lines) {
    if (line.find("\"ok\":false") != std::string::npos &&
        line.find("request line exceeds 1048576 bytes") !=
            std::string::npos) {
      ++errors;
    }
    if (line.find("\"op\":\"ping\"") != std::string::npos &&
        line.find("\"ok\":true") != std::string::npos) {
      ++pings;
    }
  }
  EXPECT_EQ(errors, 1) << output;
  EXPECT_EQ(pings, 1) << output;
}

}  // namespace
}  // namespace shg::serve
