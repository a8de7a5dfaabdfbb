// Tests for the live observability layer: the HTTP scrape server (endpoint
// routing, readiness, error statuses, concurrent scrape during serving), the
// per-net flight recorder (seqlock round trip, wrap + pinning, signal-safe
// fd dump), span sampling and its self-measured cost, Prometheus export
// hardening against hostile metric names, and the periodic stats reporter.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/estimator.hpp"
#include "core/telemetry/telemetry.hpp"
#include "features/dataset.hpp"
#include "rcnet/generate.hpp"

using namespace gnntrans;
using namespace gnntrans::telemetry;

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON well-formedness checker (same shape as test_telemetry's: a
// full RFC 8259 parse with no values built).

class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 1; i <= 4; ++i)
            if (pos_ + i >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_ + i])))
              return false;
          pos_ += 4;
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Hand-rolled HTTP/1.1 client: one request, read to EOF (the server always
// closes), return the raw response.

struct HttpResponse {
  int status = 0;
  std::string body;
  std::string raw;
};

HttpResponse http_request(std::uint16_t port, const std::string& request_text) {
  HttpResponse resp;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return resp;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return resp;
  }
  std::size_t off = 0;
  while (off < request_text.size()) {
    const ssize_t n = ::send(fd, request_text.data() + off,
                             request_text.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (resp.raw.size() > 12 && resp.raw.rfind("HTTP/1.1 ", 0) == 0)
    resp.status = std::atoi(resp.raw.c_str() + 9);
  if (const std::size_t split = resp.raw.find("\r\n\r\n");
      split != std::string::npos)
    resp.body = resp.raw.substr(split + 4);
  return resp;
}

HttpResponse http_get(std::uint16_t port, const std::string& target) {
  return http_request(port, "GET " + target +
                                " HTTP/1.1\r\nHost: localhost\r\n\r\n");
}

/// Value of an unlabeled sample line `name value` in Prometheus text.
std::optional<std::uint64_t> find_counter(const std::string& text,
                                          const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(name + " ", 0) == 0)
      return std::stoull(line.substr(name.size() + 1));
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Prometheus export hardening

TEST(PrometheusHardening, SanitizeMetricName) {
  EXPECT_EQ(sanitize_metric_name("good_name:total"), "good_name:total");
  EXPECT_EQ(sanitize_metric_name("has space"), "has_space");
  EXPECT_EQ(sanitize_metric_name("9leading_digit"), "_9leading_digit");
  EXPECT_EQ(sanitize_metric_name("bad\nname\"x"), "bad_name_x");
  EXPECT_EQ(sanitize_metric_name(""), "_");
  EXPECT_EQ(sanitize_metric_name("\xc3\xa9"), "__");  // UTF-8 bytes
}

TEST(PrometheusHardening, EscapeLabelValue) {
  EXPECT_EQ(escape_label_value("plain"), "plain");
  EXPECT_EQ(escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(escape_label_value("a\nb"), "a\\nb");
}

TEST(PrometheusHardening, EscapeHelpText) {
  EXPECT_EQ(escape_help_text("two words"), "two words");
  EXPECT_EQ(escape_help_text("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(escape_help_text("back\\slash"), "back\\\\slash");
  EXPECT_EQ(escape_help_text("\"quotes stay\""), "\"quotes stay\"");
}

TEST(PrometheusHardening, HostileNameSurvivesExport) {
  auto& registry = MetricsRegistry::global();
  const Counter hostile = registry.counter(
      "9bad name{evil=\"x\"}\n", "help with\nnewline and back\\slash");
  hostile.inc(3);

  const std::string text = registry.prometheus_text();
  // A raw newline in the help would split the HELP comment, leaving a line
  // that starts mid-sentence; escaping must keep it one line.
  std::istringstream in(text);
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.rfind("_9bad_name", 0) == 0) found = true;
    EXPECT_NE(line.rfind("newline and", 0), 0u)
        << "unescaped HELP newline split a line: " << line;
  }
  EXPECT_TRUE(found) << text;
  EXPECT_NE(text.find("help with\\nnewline and back\\\\slash"),
            std::string::npos);

  // The JSON export must stay parseable despite the hostile name.
  EXPECT_TRUE(JsonChecker(registry.json_text()).valid());
}

// ---------------------------------------------------------------------------
// Flight recorder

FlightRecord make_record(const std::string& net, bool slow, bool degraded) {
  FlightRecord rec;
  rec.set_net(net);
  rec.set_outcome(degraded ? "baseline_fallback" : "model");
  if (degraded) rec.set_error("invalid_net");
  rec.featurize_us = 1.5f;
  rec.forward_us = 20.0f;
  rec.total_us = 21.5f;
  rec.slow = slow ? 1 : 0;
  rec.degraded = degraded ? 1 : 0;
  return rec;
}

TEST(FlightRecorder, SlotRoundTrip) {
  detail::FlightSlot slot;
  FlightRecord out;
  EXPECT_FALSE(detail::read_slot(slot, &out));  // empty slot

  FlightRecord in = make_record("slot_net", true, false);
  in.seq = 42;
  in.thread_id = 7;
  detail::write_slot(slot, in);
  ASSERT_TRUE(detail::read_slot(slot, &out));
  EXPECT_STREQ(out.net, "slot_net");
  EXPECT_EQ(out.seq, 42u);
  EXPECT_EQ(out.thread_id, 7u);
  EXPECT_EQ(out.slow, 1);
  EXPECT_FLOAT_EQ(out.forward_us, 20.0f);
}

TEST(FlightRecorder, RecordRoundTripJson) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.clear();
  flight.record(make_record("round_trip_net", false, false));

  std::ostringstream out;
  flight.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("round_trip_net"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"model\""), std::string::npos);
}

TEST(FlightRecorder, PinnedSurvivesWrap) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.clear();
  flight.set_ring_capacity(16);

  // A fresh thread gets a fresh 16-slot ring: one slow net early, then
  // enough healthy traffic to wrap the main ring several times over.
  std::thread writer([&flight] {
    flight.record(make_record("the_slow_one", true, false));
    for (int i = 0; i < 64; ++i)
      flight.record(make_record("healthy" + std::to_string(i), false, false));
  });
  writer.join();

  std::ostringstream out;
  flight.write_json(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;

  // The slow record was overwritten in the main ring but pinned.
  const std::size_t pinned_at = json.find("\"pinned\":[");
  ASSERT_NE(pinned_at, std::string::npos);
  EXPECT_NE(json.find("the_slow_one", pinned_at), std::string::npos) << json;
  EXPECT_GE(flight.recorded_total(), 65u);
  EXPECT_GT(flight.dropped_total(), 0u);  // 65 appends into 16 slots

  flight.set_ring_capacity(256);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.clear();
  flight.set_enabled(false);
  const std::uint64_t before = flight.recorded_total();
  flight.record(make_record("ignored", false, false));
  EXPECT_EQ(flight.recorded_total(), before);
  flight.set_enabled(true);
}

TEST(FlightRecorder, WriteJsonFdIsWellFormed) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.clear();
  flight.record(make_record("fd_dump_net", false, true));

  char path[] = "/tmp/gnntrans_flight_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  flight.write_json_fd(fd);
  ::close(fd);

  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  ::unlink(path);
  const std::string json = content.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("fd_dump_net"), std::string::npos);
  EXPECT_NE(json.find("invalid_net"), std::string::npos);
}

TEST(FlightRecorder, JsonFilterByNetAndNewestN) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.clear();
  flight.record(make_record("filter_a", false, false));
  flight.record(make_record("filter_b", false, false));
  flight.record(make_record("filter_a", false, false));

  // Net filter: only matching records survive, and the JSON stays valid.
  std::ostringstream by_net;
  flight.write_json(by_net, {0, "filter_b"});
  EXPECT_TRUE(JsonChecker(by_net.str()).valid()) << by_net.str();
  EXPECT_NE(by_net.str().find("filter_b"), std::string::npos);
  EXPECT_EQ(by_net.str().find("filter_a"), std::string::npos);

  // Count limit keeps the newest records; composed with the net filter it
  // keeps the newest match.
  std::ostringstream newest;
  flight.write_json(newest, {1, "filter_a"});
  EXPECT_TRUE(JsonChecker(newest.str()).valid());
  std::size_t matches = 0;
  for (std::size_t at = newest.str().find("\"net\":\"filter_a\"");
       at != std::string::npos;
       at = newest.str().find("\"net\":\"filter_a\"", at + 1))
    ++matches;
  EXPECT_EQ(matches, 1u) << newest.str();

  // An unfiltered write still sees everything.
  std::ostringstream all;
  flight.write_json(all);
  EXPECT_NE(all.str().find("filter_a"), std::string::npos);
  EXPECT_NE(all.str().find("filter_b"), std::string::npos);
  flight.clear();
}

// ---------------------------------------------------------------------------
// Span sampling

TEST(SpanSampling, ShouldSampleHonorsSampleEvery) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.configure({.sample_every = 4});
  recorder.enable();

  // Fresh thread: the per-thread countdown starts at 0, so exactly every
  // 4th call (starting with the first) samples.
  std::size_t sampled = 0;
  std::thread t([&] {
    for (int i = 0; i < 400; ++i)
      if (recorder.should_sample()) ++sampled;
  });
  t.join();
  EXPECT_EQ(sampled, 100u);

  recorder.disable();
  EXPECT_FALSE(recorder.should_sample());
  recorder.configure(TraceConfig{});
}

TEST(SpanSampling, ConfigRoundTrip) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.configure({.sample_every = 8});
  EXPECT_EQ(recorder.config().sample_every, 8u);
  recorder.configure(TraceConfig{});
}

TEST(SpanSampling, SelfTimingPublishesSpanCostGauge) {
  TraceRecorder& recorder = TraceRecorder::global();
  recorder.configure(TraceConfig{});
  recorder.enable();
  // Every 64th record on a thread is self-timed; a fresh thread's 64th
  // record is its first probe.
  std::thread t([&] {
    for (int i = 0; i < 64; ++i) recorder.record("probe", "test", 0, 100);
  });
  t.join();
  recorder.disable();
  ASSERT_GT(recorder.measured_span_cost_ns(), 0.0);
  const Gauge cost =
      MetricsRegistry::global().gauge("gnntrans_trace_span_cost_ns");
  EXPECT_GT(cost.value(), 0.0);
  recorder.clear();
}

// ---------------------------------------------------------------------------
// Stats reporter

class CaptureSink final : public LogSink {
 public:
  void write(const LogRecord& record) override {
    lines.emplace_back(std::string(record.component) + ": " +
                       std::string(record.message));
  }
  std::vector<std::string> lines;
};

TEST(StatsReporter, TickLogsServingDeltas) {
  auto& registry = MetricsRegistry::global();
  const Counter nets = registry.counter("gnntrans_serving_nets_total");
  const Histogram latency = registry.histogram(
      "gnntrans_serving_net_latency_seconds",
      HistogramData::default_latency_bounds());

  auto sink = std::make_shared<CaptureSink>();
  Logger::global().add_sink(sink);

  StatsReporter reporter({60.0});
  reporter.tick();  // establishes the baseline
  nets.inc(50);
  for (int i = 0; i < 50; ++i) latency.observe(10e-6);
  reporter.tick();
  EXPECT_EQ(reporter.reports_emitted(), 2u);

  bool found = false;
  for (const std::string& line : sink->lines)
    if (line.find("obs:") == 0 && line.find("50 nets") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);

  // Restore the default sink set (clear_sinks drops the stderr sink too).
  Logger::global().clear_sinks();
  Logger::global().add_sink(std::make_shared<StderrSink>());
}

TEST(StatsReporter, StartStopIsIdempotent) {
  StatsReporter reporter({0.05});
  reporter.start();
  reporter.start();
  reporter.stop();
  reporter.stop();  // second stop is a no-op; destructor stops again
}

// ---------------------------------------------------------------------------
// Obs server: routing, statuses, readiness

TEST(ObsServer, HealthzAndBuildinfo) {
  ObsServer server;  // port 0 = ephemeral
  server.start();
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const HttpResponse health = http_get(server.port(), "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const HttpResponse info = http_get(server.port(), "/buildinfo");
  EXPECT_EQ(info.status, 200);
  EXPECT_TRUE(JsonChecker(info.body).valid()) << info.body;
  EXPECT_NE(info.body.find("\"pid\":"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ObsServer, ErrorStatuses) {
  ObsServerConfig cfg;
  cfg.max_request_bytes = 128;
  ObsServer server(cfg);
  server.start();

  EXPECT_EQ(http_get(server.port(), "/nope").status, 404);
  EXPECT_EQ(http_request(server.port(),
                         "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                .status,
            405);
  EXPECT_EQ(http_request(server.port(), "GET\r\n\r\n").status, 400);

  // Oversized head with no terminator: 413 before any timeout.
  const std::string big =
      "GET /metrics HTTP/1.1\r\n" + std::string(512, 'x');
  EXPECT_EQ(http_request(server.port(), big).status, 413);

  // Query strings are accepted and ignored.
  EXPECT_EQ(http_get(server.port(), "/healthz?verbose=1").status, 200);
}

TEST(ObsServer, ReadyzFollowsModelAndFailureRate) {
  auto& registry = MetricsRegistry::global();
  registry.reset();
  set_model_ready(false);

  ObsServer server;
  server.start();

  const HttpResponse unready = http_get(server.port(), "/readyz");
  EXPECT_EQ(unready.status, 503);
  EXPECT_NE(unready.body.find("no model"), std::string::npos);

  set_model_ready(true);
  registry.counter("gnntrans_serving_nets_total").inc(10);
  EXPECT_EQ(http_get(server.port(), "/readyz").status, 200);

  // 9 of 10 nets failed: over the default 0.5 threshold.
  registry.counter("gnntrans_serving_failed_total").inc(9);
  const HttpResponse failing = http_get(server.port(), "/readyz");
  EXPECT_EQ(failing.status, 503);
  EXPECT_NE(failing.body.find("failure rate"), std::string::npos);

  server.stop();
  registry.reset();
  set_model_ready(false);
}

TEST(ObsServer, MetricsEndpointsRoundTrip) {
  auto& registry = MetricsRegistry::global();
  const Counter probe =
      registry.counter("gnntrans_obs_scrape_probe_total", "scrape round trip");
  probe.inc(7);

  ObsServer server;
  server.start();

  const HttpResponse prom = http_get(server.port(), "/metrics");
  EXPECT_EQ(prom.status, 200);
  const auto value = find_counter(prom.body, "gnntrans_obs_scrape_probe_total");
  ASSERT_TRUE(value.has_value()) << prom.body;
  EXPECT_EQ(*value, 7u);

  const HttpResponse json = http_get(server.port(), "/metrics.json");
  EXPECT_EQ(json.status, 200);
  EXPECT_TRUE(JsonChecker(json.body).valid());

  const HttpResponse flight = http_get(server.port(), "/flight");
  EXPECT_EQ(flight.status, 200);
  EXPECT_TRUE(JsonChecker(flight.body).valid()) << flight.body;

  server.stop();
}

TEST(ObsServer, FlightEndpointHonorsCountAndNetFilters) {
  FlightRecorder& flight = FlightRecorder::global();
  flight.clear();
  flight.record(make_record("http_filter_a", false, false));
  flight.record(make_record("http_filter_b", false, false));

  ObsServer server;
  server.start();

  const HttpResponse by_net =
      http_get(server.port(), "/flight?net=http_filter_b");
  EXPECT_EQ(by_net.status, 200);
  EXPECT_TRUE(JsonChecker(by_net.body).valid()) << by_net.body;
  EXPECT_NE(by_net.body.find("http_filter_b"), std::string::npos);
  EXPECT_EQ(by_net.body.find("http_filter_a"), std::string::npos);

  const HttpResponse limited =
      http_get(server.port(), "/flight?n=1&net=http_filter_a");
  EXPECT_EQ(limited.status, 200);
  EXPECT_TRUE(JsonChecker(limited.body).valid());
  EXPECT_NE(limited.body.find("http_filter_a"), std::string::npos);

  server.stop();
  flight.clear();
}

TEST(ObsServer, TracezListsRetainedTracesSlowestFirst) {
  RequestTraceStore& store = RequestTraceStore::global();
  store.clear();
  const auto make = [](std::uint64_t id, double wall, const char* net) {
    RequestTrace t;
    t.trace_id = id;
    t.request_id = id * 10;
    t.batch_size = 4;
    t.wall_seconds = wall;
    t.queue_seconds = wall / 2;
    t.model_seconds = wall / 2;
    t.set_net(net);
    t.set_provenance("model");
    return t;
  };
  store.record(make(0xAA, 0.004, "tz_fast"));
  store.record(make(0xBB, 0.040, "tz_slow"));
  store.record(make(0xCC, 0.010, "tz_mid"));

  ObsServer server;
  server.start();

  const HttpResponse all = http_get(server.port(), "/tracez");
  EXPECT_EQ(all.status, 200);
  EXPECT_TRUE(JsonChecker(all.body).valid()) << all.body;
  EXPECT_NE(all.body.find("\"retained\":3"), std::string::npos);
  EXPECT_NE(all.body.find("tz_slow"), std::string::npos);
  EXPECT_NE(all.body.find("tz_fast"), std::string::npos);
  // trace_ids render as the same 0x%016llx handles the exemplars carry.
  EXPECT_NE(all.body.find("\"trace_id\":\"0x00000000000000bb\""),
            std::string::npos);
  // Slowest first: the 40 ms trace leads the 10 ms one.
  EXPECT_LT(all.body.find("tz_slow"), all.body.find("tz_mid"));

  // ?n=1 keeps only the slowest.
  const HttpResponse top = http_get(server.port(), "/tracez?n=1");
  EXPECT_EQ(top.status, 200);
  EXPECT_TRUE(JsonChecker(top.body).valid());
  EXPECT_NE(top.body.find("tz_slow"), std::string::npos);
  EXPECT_EQ(top.body.find("tz_fast"), std::string::npos);
  EXPECT_EQ(top.body.find("tz_mid"), std::string::npos);

  server.stop();
  store.clear();
}

// ---------------------------------------------------------------------------
// End-to-end: scrape while estimate_batch serves on other threads. This is
// the TSan target: seqlock flight records, sharded metric increments, and
// snapshot reads all race by design and must be clean.

class ObsServingE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    library_ = std::make_unique<cell::CellLibrary>(
        cell::CellLibrary::make_default());

    features::WireDatasetConfig dcfg;
    dcfg.net_count = 24;
    dcfg.seed = 2026;
    dcfg.sim_config.steps = 200;
    const auto records = features::generate_wire_records(dcfg, *library_);

    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 8;
    opt.model.gnn_layers = 2;
    opt.model.transformer_layers = 1;
    opt.model.heads = 2;
    opt.model.mlp_hidden = 16;
    opt.model.seed = 7;
    opt.train.epochs = 4;
    estimator_ = std::make_unique<core::WireTimingEstimator>(
        core::WireTimingEstimator::train(records, opt));

    std::mt19937_64 rng(99);
    rcnet::NetGenConfig ncfg;
    while (nets_.size() < 40) {
      rcnet::RcNet net =
          rcnet::generate_net(ncfg, rng, "eval" + std::to_string(nets_.size()));
      if (!net.validate().empty()) continue;
      nets_.push_back(std::move(net));
    }
    for (const rcnet::RcNet& net : nets_)
      contexts_.push_back(features::random_context(*library_, net, rng));
  }

  static void TearDownTestSuite() {
    estimator_.reset();
    library_.reset();
    nets_.clear();
    contexts_.clear();
  }

  static std::vector<core::NetBatchItem> items() {
    std::vector<core::NetBatchItem> out(nets_.size());
    for (std::size_t i = 0; i < nets_.size(); ++i)
      out[i] = {&nets_[i], &contexts_[i]};
    return out;
  }

  static std::unique_ptr<cell::CellLibrary> library_;
  static std::unique_ptr<core::WireTimingEstimator> estimator_;
  static std::vector<rcnet::RcNet> nets_;
  static std::vector<features::NetContext> contexts_;
};

std::unique_ptr<cell::CellLibrary> ObsServingE2E::library_;
std::unique_ptr<core::WireTimingEstimator> ObsServingE2E::estimator_;
std::vector<rcnet::RcNet> ObsServingE2E::nets_;
std::vector<features::NetContext> ObsServingE2E::contexts_;

TEST_F(ObsServingE2E, ConcurrentScrapeWhileServing) {
  auto& registry = MetricsRegistry::global();
  const std::uint64_t nets_before =
      registry.counter("gnntrans_serving_nets_total").value();

  ObsServer server;
  server.start();
  set_model_ready(true);

  constexpr std::size_t kPasses = 6;
  const auto batch = items();
  std::atomic<bool> serving_done{false};
  std::thread worker([&] {
    core::BatchOptions options;
    options.threads = 2;
    for (std::size_t p = 0; p < kPasses; ++p)
      (void)estimator_->estimate_batch(batch, options);
    serving_done.store(true, std::memory_order_release);
  });

  // Hammer every endpoint while the worker serves; every response must be
  // complete and well-formed mid-traffic.
  std::size_t scrapes = 0;
  while (!serving_done.load(std::memory_order_acquire)) {
    const HttpResponse prom = http_get(server.port(), "/metrics");
    ASSERT_EQ(prom.status, 200);
    const HttpResponse flight = http_get(server.port(), "/flight");
    ASSERT_EQ(flight.status, 200);
    EXPECT_TRUE(JsonChecker(flight.body).valid());
    EXPECT_EQ(http_get(server.port(), "/readyz").status, 200);
    ++scrapes;
  }
  worker.join();
  EXPECT_GE(scrapes, 1u);

  // The post-quiescence scrape reads back exactly what serving published.
  const HttpResponse after = http_get(server.port(), "/metrics");
  const auto nets_now = find_counter(after.body, "gnntrans_serving_nets_total");
  ASSERT_TRUE(nets_now.has_value());
  EXPECT_EQ(*nets_now - nets_before, kPasses * batch.size());

  // Serving fed the flight recorder; the latest eval nets are visible.
  const HttpResponse flight = http_get(server.port(), "/flight");
  EXPECT_NE(flight.body.find("eval"), std::string::npos);

  server.stop();
  set_model_ready(false);
}

}  // namespace
