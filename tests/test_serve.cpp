// Network serving front-end tests: the wire protocol (bitwise round-trips,
// bounds-checked decode, frame reassembly, the v2 trace-context block and v1
// compatibility), request tracing end to end (stage-clock telescoping, p99
// exemplar resolution on /tracez, bitwise non-intrusiveness, trace ids in
// failure statuses, gnntrans_client_* retry counters), the hardened admission
// path
// (typed kOverloaded load-shedding, per-request deadlines, kShuttingDown
// drain), malformed-frame survival (truncated prefixes, hostile lengths,
// garbage payloads, mid-frame disconnects), backpressure on and the bounded
// write to a client
// that stops reading, a thread count flat in the client count, the
// EADDRINUSE bind retry — and
// the headline: a deterministic soak where 8 concurrent clients push 10k
// requests through a server with 5% injected socket faults, every request is
// accounted for in exactly one ledger bucket, the injected-fault counters
// match the injector exactly, and every served response is bitwise-identical
// to a direct estimate_batch call.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cell/library.hpp"
#include "core/estimate_cache.hpp"
#include "core/estimator.hpp"
#include "core/fault_injector.hpp"
#include "core/status.hpp"
#include "core/telemetry/flight_recorder.hpp"
#include "core/telemetry/metrics.hpp"
#include "core/telemetry/net_io.hpp"
#include "core/telemetry/stage.hpp"
#include "core/telemetry/trace.hpp"
#include "features/dataset.hpp"
#include "rcnet/generate.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace gnntrans::serve {

/// Holds a server's batcher before it takes a batch, so a test can keep
/// requests queued; stop() drains a held queue all the same.
struct NetServerTestPeer {
  static void hold(NetServer& server, bool held) {
    {
      std::lock_guard<std::mutex> lock(server.queue_mutex_);
      server.held_ = held;
    }
    server.queue_cv_.notify_all();
  }
};

}  // namespace gnntrans::serve

namespace {

using namespace gnntrans;
using core::ErrorCode;
using core::FaultInjector;
using core::FaultSite;
using Clock = std::chrono::steady_clock;

/// Disarms the global injector on scope exit so a failing soak cannot leak an
/// armed injector into later suites.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::global().disarm(); }
};

/// Enables request head sampling at the given rate for the test's scope and
/// restores the recorder to its defaults (disabled, default config, empty
/// rings) plus a clean flight recorder (its retained requests included) and
/// zeroed metrics (the keep-max exemplars resolve against those requests) on
/// exit, so tracing state never leaks into later tests even when assertions
/// fail.
struct TraceGuard {
  explicit TraceGuard(double head_rate) {
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
    telemetry::TraceConfig cfg;
    cfg.head_sample_rate = head_rate;
    recorder.clear();
    recorder.configure(cfg);
    recorder.enable();
    telemetry::FlightRecorder::global().clear();
  }
  ~TraceGuard() {
    telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::global();
    recorder.disable();
    recorder.configure(telemetry::TraceConfig{});
    recorder.clear();
    telemetry::FlightRecorder::global().clear();
    telemetry::MetricsRegistry::global().reset();
  }
};

/// Current value of a named counter in the global registry (0 if absent).
std::uint64_t global_counter(std::string_view name) {
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  for (const telemetry::MetricsSnapshot::CounterValue& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// A request record's stage, in seconds.
double stage_seconds(const telemetry::FlightRecord& r, telemetry::Stage s) {
  return static_cast<double>(r.stage(s)) * 1e-6;
}

/// The request stages, which telescope to the request's wall time (the
/// net's own stages are shares of core.estimate).
constexpr telemetry::Stage kRequestStages[] = {
    telemetry::Stage::kQueue, telemetry::Stage::kBatchWait,
    telemetry::Stage::kEstimate, telemetry::Stage::kEncode,
    telemetry::Stage::kWrite};

double request_stage_sum_seconds(const telemetry::FlightRecord& r) {
  double sum = 0.0;
  for (const telemetry::Stage s : kRequestStages) sum += stage_seconds(r, s);
  return sum;
}

bool wait_until(const std::function<bool()>& pred, int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Releases \p server's held batcher once a request was decoded and has
/// dwelt \p dwell_ms in the queue; the caller joins the returned thread.
std::thread release_after_dwell(serve::NetServer& server, int dwell_ms) {
  return std::thread([&server, dwell_ms] {
    wait_until([&] { return server.ledger().requests_decoded.load() > 0; },
               5000);
    std::this_thread::sleep_for(std::chrono::milliseconds(dwell_ms));
    serve::NetServerTestPeer::hold(server, false);
  });
}

// ---------------------------------------------------------------------------
// Shared fixtures: one tiny trained estimator and one eval population for the
// whole file (training dominates the file's runtime; quality is irrelevant).

const cell::CellLibrary& shared_library() {
  static const cell::CellLibrary library = cell::CellLibrary::make_default();
  return library;
}

const core::WireTimingEstimator& shared_estimator() {
  static const core::WireTimingEstimator estimator = [] {
    features::WireDatasetConfig dcfg;
    dcfg.net_count = 16;
    dcfg.seed = 2026;
    dcfg.sim_config.steps = 150;
    const std::vector<features::WireRecord> records =
        features::generate_wire_records(dcfg, shared_library());
    core::WireTimingEstimator::Options opt;
    opt.model.hidden_dim = 8;
    opt.model.gnn_layers = 2;
    opt.model.transformer_layers = 1;
    opt.model.heads = 2;
    opt.model.mlp_hidden = 16;
    opt.model.seed = 7;
    opt.train.epochs = 2;
    return core::WireTimingEstimator::train(records, opt);
  }();
  return estimator;
}

struct EvalData {
  std::vector<rcnet::RcNet> nets;
  std::vector<features::NetContext> contexts;
  std::vector<core::NetBatchItem> items;
  /// Direct estimate_batch results — the bitwise reference for every served
  /// response in this file.
  std::vector<std::vector<core::PathEstimate>> reference;
};

const EvalData& shared_eval() {
  static const EvalData data = [] {
    EvalData d;
    std::mt19937_64 rng(99);
    rcnet::NetGenConfig cfg;
    constexpr std::size_t kCount = 32;
    while (d.nets.size() < kCount) {
      rcnet::RcNet net = rcnet::generate_net(
          cfg, rng, "serve" + std::to_string(d.nets.size()));
      if (!net.validate().empty()) continue;
      d.nets.push_back(std::move(net));
    }
    for (const rcnet::RcNet& net : d.nets)
      d.contexts.push_back(features::random_context(shared_library(), net, rng));
    d.items.resize(kCount);
    for (std::size_t i = 0; i < kCount; ++i)
      d.items[i] = {&d.nets[i], &d.contexts[i]};
    core::BatchOptions options;
    options.threads = 1;
    std::vector<nn::Workspace> workspaces;
    options.workspaces = &workspaces;
    core::InferenceStats stats;
    d.reference = shared_estimator().estimate_batch(d.items, options, &stats);
    return d;
  }();
  return data;
}

bool paths_bitwise_equal(const std::vector<core::PathEstimate>& a,
                         const std::vector<core::PathEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Field-wise (struct padding is indeterminate); doubles as bit patterns
    // so -0.0 vs 0.0 or NaN payload differences still count as a diff.
    if (a[i].sink != b[i].sink || a[i].provenance != b[i].provenance ||
        std::memcmp(&a[i].delay, &b[i].delay, sizeof(double)) != 0 ||
        std::memcmp(&a[i].slew, &b[i].slew, sizeof(double)) != 0)
      return false;
  }
  return true;
}

// Values-only variant for cache-enabled runs: a kCached response carries the
// stored bytes of a prior model pass, so delay/slew/sink must match the
// kModel reference bit for bit while the provenance tag legitimately differs.
bool paths_values_bitwise_equal(const std::vector<core::PathEstimate>& a,
                                const std::vector<core::PathEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].sink != b[i].sink ||
        std::memcmp(&a[i].delay, &b[i].delay, sizeof(double)) != 0 ||
        std::memcmp(&a[i].slew, &b[i].slew, sizeof(double)) != 0)
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Raw-socket harness: drives the server below the NetClient abstraction so
// tests can send malformed bytes and observe the exact close behavior.

struct RawConn {
  int fd = -1;
  std::string buffer;
  bool eof = false;

  ~RawConn() { close(); }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  /// \p narrow, set before the connect, shrinks the receive window to a
  /// few KiB and the segment size to 536 bytes. The server's send buffer
  /// grows with its segment size (64 KiB on loopback, up to tcp_wmem's
  /// limit), so a narrow client's buffers fill after a few hundred
  /// responses.
  bool connect_to(std::uint16_t port, bool narrow = false) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return false;
    if (narrow) {
      const int rcvbuf = 4096, mss = 536;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
      ::setsockopt(fd, IPPROTO_TCP, TCP_MAXSEG, &mss, sizeof(mss));
    }
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool send_bytes(std::string_view bytes) {
    return telemetry::send_all(fd, bytes, 2000);
  }

  /// Reads until \p want responses decoded (0 = until EOF/timeout). Sets
  /// `eof` when the server closed the connection.
  std::vector<serve::ResponseFrame> read_responses(std::size_t want,
                                                   int timeout_ms) {
    std::vector<serve::ResponseFrame> collected;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
      for (;;) {
        std::string payload;
        const serve::FrameStatus fs =
            serve::try_extract_frame(buffer, &payload);
        if (fs != serve::FrameStatus::kFrame) break;
        serve::ResponseFrame response;
        if (serve::decode_response(payload, &response).ok())
          collected.push_back(std::move(response));
      }
      if (want > 0 && collected.size() >= want) return collected;
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) return collected;
      char buf[4096];
      std::size_t got = 0;
      switch (telemetry::recv_some(fd, buf, sizeof(buf),
                                   static_cast<int>(left.count()), &got)) {
        case telemetry::IoResult::kOk:
          buffer.append(buf, got);
          break;
        case telemetry::IoResult::kEof:
          eof = true;
          return collected;
        case telemetry::IoResult::kTimeout:
        case telemetry::IoResult::kError:
          return collected;
      }
    }
  }
};

std::string make_request_bytes(std::uint64_t id, std::size_t item,
                               std::uint32_t deadline_us = 0) {
  const EvalData& eval = shared_eval();
  serve::RequestFrame request;
  request.request_id = id;
  request.deadline_us = deadline_us;
  request.net = eval.nets[item % eval.nets.size()];
  request.context = eval.contexts[item % eval.contexts.size()];
  return serve::encode_request(request);
}

// ---------------------------------------------------------------------------
// Protocol: bitwise round-trips and bounds-checked decode.

TEST(ServeProtocol, RequestRoundTripIsBitwiseExact) {
  const EvalData& eval = shared_eval();
  serve::RequestFrame in;
  in.request_id = 0xDEADBEEFCAFE0001ull;
  in.attempt = 3;
  in.deadline_us = 1234567;
  in.net = eval.nets[0];
  in.context = eval.contexts[0];

  const std::string frame = serve::encode_request(in);
  std::string buffer = frame;
  std::string payload;
  ASSERT_EQ(serve::try_extract_frame(buffer, &payload),
            serve::FrameStatus::kFrame);
  EXPECT_TRUE(buffer.empty());

  serve::RequestFrame out;
  ASSERT_TRUE(serve::decode_request(payload, &out).ok());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.attempt, in.attempt);
  EXPECT_EQ(out.deadline_us, in.deadline_us);
  EXPECT_EQ(out.net.name, in.net.name);
  EXPECT_EQ(out.net.source, in.net.source);
  EXPECT_EQ(out.net.sinks, in.net.sinks);
  ASSERT_EQ(out.net.ground_cap.size(), in.net.ground_cap.size());
  for (std::size_t i = 0; i < in.net.ground_cap.size(); ++i)
    EXPECT_EQ(std::memcmp(&out.net.ground_cap[i], &in.net.ground_cap[i],
                          sizeof(double)),
              0);
  ASSERT_EQ(out.net.resistors.size(), in.net.resistors.size());
  for (std::size_t i = 0; i < in.net.resistors.size(); ++i) {
    EXPECT_EQ(out.net.resistors[i].a, in.net.resistors[i].a);
    EXPECT_EQ(out.net.resistors[i].b, in.net.resistors[i].b);
    EXPECT_EQ(std::memcmp(&out.net.resistors[i].ohms, &in.net.resistors[i].ohms,
                          sizeof(double)),
              0);
  }
  ASSERT_EQ(out.net.couplings.size(), in.net.couplings.size());
  EXPECT_EQ(std::memcmp(&out.context.input_slew, &in.context.input_slew,
                        sizeof(double)),
            0);
  EXPECT_EQ(out.context.driver_strength, in.context.driver_strength);
  ASSERT_EQ(out.context.loads.size(), in.context.loads.size());
}

TEST(ServeProtocol, ResponseRoundTripIsBitwiseExact) {
  serve::ResponseFrame in;
  in.request_id = 42;
  in.attempt = 1;
  in.status = ErrorCode::kOk;
  in.provenance = core::EstimateProvenance::kModel;
  in.message = "fine";
  in.paths.push_back({7, 1.25e-10, -0.0, core::EstimateProvenance::kModel});
  in.paths.push_back(
      {9, 3.5e-11, 2.75e-10, core::EstimateProvenance::kBaselineFallback});

  std::string buffer = serve::encode_response(in);
  std::string payload;
  ASSERT_EQ(serve::try_extract_frame(buffer, &payload),
            serve::FrameStatus::kFrame);
  serve::ResponseFrame out;
  ASSERT_TRUE(serve::decode_response(payload, &out).ok());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.status, in.status);
  EXPECT_EQ(out.provenance, in.provenance);
  EXPECT_EQ(out.message, in.message);
  EXPECT_TRUE(paths_bitwise_equal(out.paths, in.paths));
}

TEST(ServeProtocol, TruncatedPrefixNeedsMore) {
  for (const std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{3}}) {
    std::string buffer(len, '\x01');
    std::string payload;
    EXPECT_EQ(serve::try_extract_frame(buffer, &payload),
              serve::FrameStatus::kNeedMore);
    EXPECT_EQ(buffer.size(), len);  // untouched
  }
  // Complete prefix, partial payload.
  std::string buffer("\x10\x00\x00\x00half", 8);
  std::string payload;
  EXPECT_EQ(serve::try_extract_frame(buffer, &payload),
            serve::FrameStatus::kNeedMore);
}

TEST(ServeProtocol, OversizeDeclaredLengthDetected) {
  std::string buffer("\xFF\xFF\xFF\x7F", 4);  // declares ~2 GiB
  std::string payload;
  EXPECT_EQ(serve::try_extract_frame(buffer, &payload, 1 << 20),
            serve::FrameStatus::kOversize);
  EXPECT_EQ(buffer.size(), 4u);  // left for the caller to observe
}

TEST(ServeProtocol, GarbagePayloadIsTypedReject) {
  serve::RequestFrame out;
  EXPECT_EQ(serve::decode_request("not a frame at all", &out).code(),
            ErrorCode::kMalformedFrame);
  serve::ResponseFrame rout;
  EXPECT_EQ(serve::decode_response("junk", &rout).code(),
            ErrorCode::kMalformedFrame);
}

TEST(ServeProtocol, EveryStrictTruncationIsRejected) {
  // Every strict prefix of a valid payload must fail decode (counts are
  // declared before their items, so no prefix can parse as complete), and a
  // trailing byte after a well-formed body is itself malformed.
  const std::string frame = make_request_bytes(77, 0);
  const std::string payload = frame.substr(4);  // strip length prefix
  serve::RequestFrame out;
  ASSERT_TRUE(serve::decode_request(payload, &out).ok());
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_EQ(
        serve::decode_request(std::string_view(payload).substr(0, cut), &out)
            .code(),
        ErrorCode::kMalformedFrame)
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_EQ(serve::decode_request(payload + "x", &out).code(),
            ErrorCode::kMalformedFrame);
}

// ---------------------------------------------------------------------------
// Protocol v2: the optional trace-context block and v1 compatibility.
// Payload offsets: magic u32 | version u8 (4) | type u8 (5) | flags u16 (6)
// | request_id u64 | attempt u32 | [trace: u64 id | u64 span | u8 sampled
// at offset 36].

TEST(ServeProtocol, TraceContextRoundTrip) {
  const EvalData& eval = shared_eval();
  serve::RequestFrame in;
  in.request_id = 0x1122334455667788ull;
  in.attempt = 2;
  in.trace.trace_id = 0xABCDEF0123456789ull;
  in.trace.span_id = 0x42;
  in.trace.sampled = true;
  in.net = eval.nets[1];
  in.context = eval.contexts[1];

  const std::string payload = serve::encode_request(in).substr(4);
  // The v2 header announces the block: version byte 2, flags bit 0 set.
  EXPECT_EQ(static_cast<unsigned char>(payload[4]), serve::kVersion);
  EXPECT_EQ(static_cast<unsigned char>(payload[6]) & serve::kFlagTraceContext,
            serve::kFlagTraceContext);

  serve::RequestFrame out;
  ASSERT_TRUE(serve::decode_request(payload, &out).ok());
  EXPECT_EQ(out.trace.trace_id, in.trace.trace_id);
  EXPECT_EQ(out.trace.span_id, in.trace.span_id);
  EXPECT_TRUE(out.trace.sampled);
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.net.name, in.net.name);

  // A valid-but-unsampled context survives too (sampled byte 0).
  in.trace.sampled = false;
  serve::RequestFrame out2;
  ASSERT_TRUE(
      serve::decode_request(
          std::string_view(serve::encode_request(in)).substr(4), &out2)
          .ok());
  EXPECT_EQ(out2.trace.trace_id, in.trace.trace_id);
  EXPECT_FALSE(out2.trace.sampled);

  // An untraced request encodes with no block and no flag — v1-shaped bytes.
  serve::RequestFrame untraced = in;
  untraced.trace = telemetry::TraceContext{};
  const std::string plain = serve::encode_request(untraced).substr(4);
  EXPECT_EQ(static_cast<unsigned char>(plain[6]), 0u);
  EXPECT_EQ(plain.size() + 17, payload.size());
}

TEST(ServeProtocol, V1FrameDecodesWithTracingAbsent) {
  // An untraced v2 frame differs from a v1 frame only in the version byte;
  // patching it down must still decode — tracing is simply absent.
  std::string payload = make_request_bytes(123, 2).substr(4);
  payload[4] = '\x01';
  serve::RequestFrame out;
  ASSERT_TRUE(serve::decode_request(payload, &out).ok());
  EXPECT_EQ(out.request_id, 123u);
  EXPECT_FALSE(out.trace.valid());
  EXPECT_FALSE(out.trace.sampled);

  // v1 predates the flags field (the bytes were "reserved"): nonzero bits
  // are ignored, not malformed, and never imply a trace block.
  payload[6] = '\x03';
  ASSERT_TRUE(serve::decode_request(payload, &out).ok());
  EXPECT_FALSE(out.trace.valid());

  // Below kMinVersion is a typed reject.
  payload[4] = '\x00';
  EXPECT_EQ(serve::decode_request(payload, &out).code(),
            ErrorCode::kMalformedFrame);
}

TEST(ServeProtocol, TraceBlockTruncationAndGarbageAreMalformed) {
  const EvalData& eval = shared_eval();
  serve::RequestFrame in;
  in.request_id = 9;
  in.trace = {0x1111111111111111ull, 0x2222ull, true};
  in.net = eval.nets[0];
  in.context = eval.contexts[0];
  const std::string payload = serve::encode_request(in).substr(4);

  serve::RequestFrame out;
  ASSERT_TRUE(serve::decode_request(payload, &out).ok());

  // Every strict prefix of the traced payload fails typed — this sweeps
  // every truncation point inside the 17-byte trace block along the way.
  for (std::size_t cut = 0; cut < payload.size(); ++cut)
    EXPECT_EQ(
        serve::decode_request(std::string_view(payload).substr(0, cut), &out)
            .code(),
        ErrorCode::kMalformedFrame)
        << "prefix of " << cut << " bytes decoded";

  // Garbage sampled byte (only 0/1 are defined).
  std::string garbled = payload;
  garbled[36] = '\x07';
  EXPECT_EQ(serve::decode_request(garbled, &out).code(),
            ErrorCode::kMalformedFrame);

  // Unknown v2 flag bits are malformed, not silently ignored.
  garbled = payload;
  garbled[6] = '\x03';
  EXPECT_EQ(serve::decode_request(garbled, &out).code(),
            ErrorCode::kMalformedFrame);

  // The trace block rides requests only; a response announcing one is
  // malformed.
  serve::ResponseFrame rin;
  rin.request_id = 9;
  std::string rpayload = serve::encode_response(rin).substr(4);
  rpayload[6] = '\x01';
  serve::ResponseFrame rout;
  EXPECT_EQ(serve::decode_response(rpayload, &rout).code(),
            ErrorCode::kMalformedFrame);
}

// ---------------------------------------------------------------------------
// bind_listener: ephemeral ports and the EADDRINUSE retry.

TEST(ServeBind, EphemeralPortIsResolved) {
  std::uint16_t port = 0;
  std::string error;
  const int fd = telemetry::bind_listener("127.0.0.1", 0, 8, &port, &error);
  ASSERT_GE(fd, 0) << error;
  EXPECT_GT(port, 0);
  ::close(fd);
}

TEST(ServeBind, RetriesUntilPortFrees) {
  std::uint16_t port = 0;
  std::string error;
  const int blocker = telemetry::bind_listener("127.0.0.1", 0, 8, &port, &error);
  ASSERT_GE(blocker, 0) << error;

  // A single attempt against an actively-listening port fails typed.
  std::uint16_t scratch = 0;
  EXPECT_LT(telemetry::bind_listener("127.0.0.1", port, 8, &scratch, &error,
                                     /*attempts=*/1, /*backoff_initial_ms=*/1),
            0);
  EXPECT_FALSE(error.empty());

  // With retries, the bind lands once the blocker releases the port.
  std::thread releaser([blocker] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    ::close(blocker);
  });
  std::uint16_t bound = 0;
  const int fd = telemetry::bind_listener("127.0.0.1", port, 8, &bound, &error,
                                          /*attempts=*/8,
                                          /*backoff_initial_ms=*/25);
  releaser.join();
  ASSERT_GE(fd, 0) << error;
  EXPECT_EQ(bound, port);
  ::close(fd);
}

// ---------------------------------------------------------------------------
// End-to-end: served responses are bitwise-identical to direct estimate_batch.

TEST(NetServe, EndToEndBitwiseIdenticalToDirectBatch) {
  const EvalData& eval = shared_eval();
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();

  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.client_id = 1;
  serve::NetClient client(ccfg);
  for (std::size_t i = 0; i < eval.items.size(); ++i) {
    const serve::NetClient::Result result =
        client.estimate(eval.nets[i], eval.contexts[i]);
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_EQ(result.provenance, core::EstimateProvenance::kModel);
    EXPECT_TRUE(paths_bitwise_equal(result.paths, eval.reference[i]))
        << "net " << i << " differs from direct estimate_batch";
  }
  server.stop();
  EXPECT_EQ(server.ledger().served.load(), eval.items.size());
  EXPECT_EQ(server.ledger().rejected_total(), 0u);

  // The gnntrans_net_* surface made it to the registry.
  const std::string text =
      telemetry::MetricsRegistry::global().prometheus_text();
  EXPECT_NE(text.find("gnntrans_net_served_total"), std::string::npos);
  EXPECT_NE(text.find("gnntrans_net_batch_size"), std::string::npos);
  EXPECT_NE(text.find("gnntrans_net_queue_depth"), std::string::npos);
}

// The batcher is work-conserving: a lone request into an idle server is
// taken at once, not after some flush timer. One client sends its requests
// one after another, so each finds the batcher idle; the median of their
// serve.queue stages stays far below a millisecond.
TEST(NetServe, IdleServerServesALoneRequestAtOnce) {
  const EvalData& eval = shared_eval();
  TraceGuard tracing(/*head_rate=*/1.0);  // every request gets a record
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();

  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  serve::NetClient client(ccfg);
  constexpr std::size_t kRequests = 21;
  std::vector<std::uint64_t> trace_ids;
  for (std::size_t i = 0; i < kRequests; ++i) {
    const serve::NetClient::Result result =
        client.estimate(eval.nets[i], eval.contexts[i]);
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    trace_ids.push_back(result.trace_id);
  }
  server.stop();  // joins the I/O thread: every request is recorded
  EXPECT_EQ(server.ledger().batches.load(), kRequests);

  std::vector<double> queued;
  for (const std::uint64_t id : trace_ids) {
    telemetry::FlightRecord record;
    ASSERT_TRUE(telemetry::FlightRecorder::global().find_request(id, &record));
    queued.push_back(stage_seconds(record, telemetry::Stage::kQueue));
  }
  std::nth_element(queued.begin(), queued.begin() + kRequests / 2,
                   queued.end());
  EXPECT_LT(queued[kRequests / 2], 1e-3);
}

// ---------------------------------------------------------------------------
// Request tracing end to end: head-sampled requests get a complete stage
// breakdown whose clock telescopes to the wall time, the p99 exemplar
// resolves on /tracez, and tracing stays bitwise non-intrusive.

TEST(NetServe, TracedRequestsBitwiseIdenticalWithFullStageBreakdown) {
  const EvalData& eval = shared_eval();
  TraceGuard tracing(/*head_rate=*/1.0);  // every request head-sampled

  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();

  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.client_id = 21;
  serve::NetClient client(ccfg);
  for (std::size_t i = 0; i < eval.items.size(); ++i) {
    const serve::NetClient::Result result =
        client.estimate(eval.nets[i], eval.contexts[i]);
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_NE(result.trace_id, 0u);  // rate-1.0 head sampling
    // Tracing must be bitwise non-intrusive: the reference was computed by a
    // direct, untraced estimate_batch call.
    EXPECT_TRUE(paths_bitwise_equal(result.paths, eval.reference[i]))
        << "net " << i << " differs under tracing";
  }
  server.stop();  // joins the I/O thread: every stage clock is closed

  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
  EXPECT_EQ(flight.requests_recorded(), eval.items.size());
  const std::vector<telemetry::FlightRecord> traces = flight.slowest_requests();
  ASSERT_EQ(traces.size(), eval.items.size());  // 32 requests fit 64 slots
  for (const telemetry::FlightRecord& t : traces) {
    EXPECT_NE(t.trace_id, 0u);
    EXPECT_GE(t.batch_size, 1u);
    EXPECT_STREQ(t.outcome, "model");
    const double wall = static_cast<double>(t.total_us) * 1e-6;
    EXPECT_GT(wall, 0.0);
    // Every stage is non-negative and bounded by the wall clock.
    for (const telemetry::Stage s : kRequestStages) {
      EXPECT_GE(stage_seconds(t, s), 0.0);
      EXPECT_LE(stage_seconds(t, s), wall + 1e-4);
    }
    // The net's own stages sum into the core.estimate stage.
    double net_stages = 0.0;
    for (std::size_t s = 0; s < telemetry::kNetStageCount; ++s)
      net_stages += stage_seconds(t, static_cast<telemetry::Stage>(s));
    EXPECT_LE(net_stages,
              stage_seconds(t, telemetry::Stage::kEstimate) + 1e-6);
    // The stage clock telescopes: adjacent boundaries share clock reads, so
    // the sum tracks the wall within 5% (plus a floor for scheduler noise).
    const double slack = std::max(0.05 * wall, 2e-4);
    EXPECT_NEAR(request_stage_sum_seconds(t), wall, slack)
        << "trace 0x" << std::hex << t.trace_id;
  }

  // The request_seconds p99 exemplar resolves to a retained /tracez record
  // (keep-max: it is the slowest request, which the store must have kept).
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::global().snapshot();
  bool exemplar_checked = false;
  for (const telemetry::MetricsSnapshot::HistogramValue& h : snap.histograms) {
    if (h.name != "gnntrans_net_request_seconds") continue;
    ASSERT_TRUE(h.has_exemplar);
    EXPECT_NE(h.exemplar_trace_id, 0u);
    telemetry::FlightRecord resolved;
    EXPECT_TRUE(flight.find_request(h.exemplar_trace_id, &resolved));
    EXPECT_EQ(std::string(resolved.net), h.exemplar_label);
    exemplar_checked = true;
  }
  EXPECT_TRUE(exemplar_checked);
  // And it reaches the Prometheus exposition as an OpenMetrics-style suffix.
  EXPECT_NE(telemetry::MetricsRegistry::global().prometheus_text().find(
                "# {trace_id=\"0x"),
            std::string::npos);
}

// One histogram per stage of the stage table, fed by the stage clock:
// estimate_batch observes each net's stages that ran, the server each served
// request's request stages. Half the direct batch's forward passes fail, so
// core.fallback runs on some nets only, and nothing runs nn.forward_heads.
TEST(NetServe, StageHistogramsCoverTheStageTableOnce) {
  const EvalData& eval = shared_eval();
  InjectorGuard disarm;
  telemetry::MetricsRegistry::global().reset();

  FaultInjector::Config faults;
  faults.probability = 0.5;
  faults.site_mask = core::site_bit(FaultSite::kForward);
  FaultInjector::global().configure(faults);
  core::InferenceStats stats;
  (void)shared_estimator().estimate_batch(eval.items, {.threads = 1}, &stats);
  FaultInjector::global().disarm();
  ASSERT_GT(stats.model_nets, 0u);
  ASSERT_GT(stats.fallback_nets, 0u);

  constexpr std::size_t kRequests = 8;
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();
  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  serve::NetClient client(ccfg);
  for (std::size_t i = 0; i < kRequests; ++i)
    ASSERT_TRUE(client.estimate(eval.nets[i], eval.contexts[i]).status.ok());
  server.stop();  // joins the I/O thread: every write stage is observed

  // The _count of every gnntrans_net_stage_* histogram in the exposition.
  std::map<std::string, std::uint64_t> counts;
  std::istringstream text(
      telemetry::MetricsRegistry::global().prometheus_text());
  for (std::string line; std::getline(text, line);) {
    const std::size_t space = line.find(' ');
    if (line.starts_with("# TYPE gnntrans_net_stage_")) {
      EXPECT_TRUE(line.ends_with(" histogram")) << line;
    }
    if (!line.starts_with("gnntrans_net_stage_") ||
        !line.substr(0, space).ends_with("_count"))
      continue;
    counts[line.substr(0, space - 6)] = std::stoull(line.substr(space + 1));
  }

  const auto metric = [](telemetry::Stage stage) {
    std::string name = telemetry::stage_name(stage);
    std::replace(name.begin(), name.end(), '.', '_');
    return "gnntrans_net_stage_" + name + "_seconds";
  };
  const std::uint64_t nets = eval.items.size() + kRequests;
  std::map<std::string, std::uint64_t> expected = {
      {metric(telemetry::Stage::kExtract), nets},
      {metric(telemetry::Stage::kMakeSample), nets},
      {metric(telemetry::Stage::kForward), nets},
      {metric(telemetry::Stage::kForwardHeads), 0},
      {metric(telemetry::Stage::kFallback), stats.fallback_nets}};
  for (const telemetry::Stage s : kRequestStages) expected[metric(s)] = kRequests;
  ASSERT_EQ(expected.size(), telemetry::kStageCount);
  EXPECT_EQ(counts, expected);
  telemetry::MetricsRegistry::global().reset();
}

/// One event of write_chrome_json's output.
struct ChromeEvent {
  std::string name, ph, id;
  double ts = 0.0, dur = 0.0;
};

/// The value of "key": in one flat JSON object, "" when absent.
std::string json_field(std::string_view object, std::string_view key) {
  const std::string tag = "\"" + std::string(key) + "\":";
  const std::size_t at = object.find(tag);
  if (at == std::string_view::npos) return "";
  std::size_t begin = at + tag.size();
  std::size_t end = object.find_first_of(",}", begin);
  if (object[begin] == '"') end = object.find('"', ++begin);
  return std::string(object.substr(begin, end - begin));
}

std::vector<ChromeEvent> chrome_events(const std::string& json) {
  std::vector<ChromeEvent> events;
  for (std::size_t at = json.find("{\"name\""); at != std::string::npos;
       at = json.find("{\"name\"", at + 1)) {
    const std::string_view object =
        std::string_view(json).substr(at, json.find('}', at) - at + 1);
    const std::string dur = json_field(object, "dur");
    events.push_back({json_field(object, "name"), json_field(object, "ph"),
                      json_field(object, "id"),
                      std::stod(json_field(object, "ts")),
                      dur.empty() ? 0.0 : std::stod(dur)});
  }
  return events;
}

// A served head-sampled request renders in the Chrome trace as one slice per
// request stage on its trace id, laid back to back so their durations add up
// to the request's /tracez wall time, joined by the client-to-server flow.
TEST(NetServe, ServedRequestChromeTraceHasOneSlicePerRequestStage) {
  const EvalData& eval = shared_eval();
  TraceGuard tracing(/*head_rate=*/1.0);
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();
  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  serve::NetClient client(ccfg);
  const serve::NetClient::Result result =
      client.estimate(eval.nets[0], eval.contexts[0]);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  server.stop();  // joins the I/O thread: the request's slices are recorded

  telemetry::FlightRecord record;
  ASSERT_TRUE(
      telemetry::FlightRecorder::global().find_request(result.trace_id, &record));
  std::ostringstream json;
  telemetry::TraceRecorder::global().write_chrome_json(json);
  const std::vector<ChromeEvent> events = chrome_events(json.str());
  char id[40];
  std::snprintf(id, sizeof(id), "0x%llx",
                static_cast<unsigned long long>(result.trace_id));

  double slices_us = 0.0;
  for (const telemetry::Stage s : kRequestStages) {
    std::size_t slices = 0;
    for (const ChromeEvent& e : events) {
      if (e.ph == "X" && e.id == id && e.name == telemetry::stage_name(s)) {
        ++slices;
        slices_us += e.dur;
      }
    }
    EXPECT_EQ(slices, 1u) << telemetry::stage_name(s);
  }
  const double wall_us = record.total_us;
  EXPECT_NEAR(slices_us, wall_us, std::max(0.05 * wall_us, 200.0));

  std::vector<std::pair<double, std::string>> flow;
  for (const ChromeEvent& e : events)
    if (e.id == id && (e.ph == "s" || e.ph == "t" || e.ph == "f"))
      flow.emplace_back(e.ts, e.ph + " " + e.name);
  std::sort(flow.begin(), flow.end());
  std::vector<std::string> chain;
  for (const auto& step : flow) chain.push_back(step.second);
  EXPECT_EQ(chain, (std::vector<std::string>{"s client_send", "t server_admit",
                                             "t batch_model", "f client_done"}));
}

TEST(NetServe, FailureStatusCarriesTraceId) {
  TraceGuard tracing(/*head_rate=*/1.0);
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  serve::NetServerTestPeer::hold(server, true);
  server.start();
  std::thread release =
      release_after_dwell(server, 50);  // 50 ms queue dwell >> 1 ms budget

  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.max_retries = 0;
  serve::NetClient client(ccfg);
  const serve::NetClient::Result result = client.estimate(
      shared_eval().nets[0], shared_eval().contexts[0], /*deadline_us=*/1000);
  release.join();
  server.stop();

  EXPECT_EQ(result.status.code(), ErrorCode::kDeadlineExceeded);
  ASSERT_NE(result.trace_id, 0u);
  // The typed failure carries the trace handle for /tracez correlation.
  char expect[32];
  std::snprintf(expect, sizeof(expect), "[trace_id=0x%016llx]",
                static_cast<unsigned long long>(result.trace_id));
  EXPECT_NE(result.status.to_string().find(expect), std::string::npos)
      << result.status.to_string();
}

// A cache hit serves a prior model pass's bytes: its trace must read
// provenance "cached" with degraded false, and it must not be pinned into the
// flight recorder, whose pinned ring is kept for real fallbacks and failures.
TEST(NetServe, CacheHitTraceIsNotDegraded) {
  const EvalData& eval = shared_eval();
  TraceGuard tracing(/*head_rate=*/1.0);
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
  flight.clear();

  serve::NetServerConfig scfg;
  scfg.cache_bytes = 1ull << 20;
  serve::NetServer server(shared_estimator(), scfg);
  server.start();

  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.client_id = 31;
  serve::NetClient client(ccfg);
  const serve::NetClient::Result first =
      client.estimate(eval.nets[0], eval.contexts[0]);
  const serve::NetClient::Result second =
      client.estimate(eval.nets[0], eval.contexts[0]);
  server.stop();  // joins the I/O thread: every trace is recorded
  ASSERT_TRUE(first.status.ok()) << first.status.to_string();
  ASSERT_TRUE(second.status.ok()) << second.status.to_string();
  EXPECT_EQ(first.provenance, core::EstimateProvenance::kModel);
  ASSERT_EQ(second.provenance, core::EstimateProvenance::kCached);

  telemetry::FlightRecord trace;
  ASSERT_TRUE(flight.find_request(second.trace_id, &trace));
  EXPECT_STREQ(trace.outcome, "cached");
  EXPECT_FALSE(trace.degraded);
  EXPECT_FALSE(trace.slow);

  // No "request" record for this net made it into the pinned ring.
  std::ostringstream out;
  telemetry::FlightRecorder::JsonFilter filter;
  filter.net = eval.nets[0].name;
  flight.write_json(out, filter);
  const std::string json = out.str();
  const std::size_t pinned_at = json.find("\"pinned\":[");
  ASSERT_NE(pinned_at, std::string::npos) << json;
  EXPECT_EQ(json.find("\"outcome\":\"request\"", pinned_at), std::string::npos)
      << json;
  flight.clear();
}

// A slow sampled request's record, trace id and all, reaches the fatal-signal
// dump through the flight recorder's request slots.
TEST(NetServe, SlowSampledRequestReachesTheCrashDump) {
  const EvalData& eval = shared_eval();
  TraceGuard tracing(/*head_rate=*/1.0);

  serve::NetServerConfig scfg;
  scfg.batch.slow_net_warn_seconds = 1e-9;  // every net is slow
  serve::NetServer server(shared_estimator(), scfg);
  server.start();
  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  serve::NetClient client(ccfg);
  const serve::NetClient::Result result =
      client.estimate(eval.nets[0], eval.contexts[0]);
  server.stop();  // joins the I/O thread: the request is recorded
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  ASSERT_NE(result.trace_id, 0u);

  telemetry::FlightRecord record;
  ASSERT_TRUE(telemetry::FlightRecorder::global().find_request(result.trace_id,
                                                               &record));
  EXPECT_EQ(record.slow, 1);

  char path[] = "/tmp/gnntrans_serve_flight_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  telemetry::FlightRecorder::global().write_json_fd(fd);
  ::close(fd);
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  ::unlink(path);
  const std::string json = content.str();

  char trace_id[40];
  std::snprintf(trace_id, sizeof(trace_id), "\"trace_id\":\"0x%016llx\"",
                static_cast<unsigned long long>(result.trace_id));
  const std::size_t requests_at = json.find("\"requests\":[");
  ASSERT_NE(requests_at, std::string::npos) << json;
  const std::size_t record_at = json.find(trace_id, requests_at);
  ASSERT_NE(record_at, std::string::npos) << json;
  EXPECT_NE(json.find(eval.nets[0].name, requests_at), std::string::npos);
  EXPECT_NE(json.find("\"serve.write\":", record_at), std::string::npos);
}

// Connections register no flight ring: every ring is permanent and the
// recorder holds at most 256, so a record per connection would drop the
// records of every thread past the cap. 300 sequential connections, each
// load-shed at a full admission queue, must leave nothing dropped.
TEST(NetServe, ConnectionThreadsRegisterNoFlightRing) {
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
  flight.clear();

  serve::NetServerConfig scfg;
  scfg.queue_capacity = 1;
  serve::NetServer server(shared_estimator(), scfg);
  serve::NetServerTestPeer::hold(server, true);  // the one queued request
  server.start();                                // waits for stop()

  RawConn holder;
  ASSERT_TRUE(holder.connect_to(server.port()));
  ASSERT_TRUE(holder.send_bytes(make_request_bytes(1, 0)));
  ASSERT_TRUE(wait_until(
      [&] { return server.ledger().requests_decoded.load() == 1; }, 5000));

  constexpr std::uint64_t kConnections = 300;
  for (std::uint64_t c = 0; c < kConnections; ++c) {
    RawConn conn;  // one open at a time
    ASSERT_TRUE(conn.connect_to(server.port()));
    ASSERT_TRUE(conn.send_bytes(make_request_bytes(100 + c, c)));
    const std::vector<serve::ResponseFrame> responses =
        conn.read_responses(1, 5000);
    ASSERT_EQ(responses.size(), 1u) << "connection " << c;
    EXPECT_EQ(responses[0].status, ErrorCode::kOverloaded);
  }
  server.stop();

  EXPECT_EQ(server.ledger().rejected_overload.load(), kConnections);
  EXPECT_EQ(server.ledger().served.load(), 1u);
  EXPECT_EQ(flight.dropped_total(), 0u);
  flight.clear();
}

// One I/O thread serves every connection: the process runs as many threads
// with 32 open connections as with one, each having had a request answered.
TEST(NetServe, ThreadCountDoesNotGrowWithConnections) {
  const auto threads = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& task :
         std::filesystem::directory_iterator("/proc/self/task"))
      ++n;
    return n;
  };
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();

  constexpr std::uint64_t kConnections = 32;
  std::vector<RawConn> conns(kConnections);
  std::size_t with_one = 0;
  for (std::uint64_t c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(conns[c].connect_to(server.port()));
    ASSERT_TRUE(conns[c].send_bytes(make_request_bytes(c + 1, c)));
    const std::vector<serve::ResponseFrame> responses =
        conns[c].read_responses(1, 5000);
    ASSERT_EQ(responses.size(), 1u) << "connection " << c;
    EXPECT_EQ(responses[0].status, ErrorCode::kOk);
    if (c == 0) with_one = threads();
  }
  EXPECT_EQ(threads(), with_one);
  server.stop();
  EXPECT_EQ(server.ledger().served.load(), kConnections);
}

// A client that pipelines requests and reads nothing fills its socket
// buffers; the server then stops reading it, so the client's own sends stall
// (TCP backpressure) instead of growing the server's outbox. Another
// client's lone request is still answered at once, and once the slow
// reader's oldest unfinished write is write_timeout_ms old, its outbox is
// dropped and its connection closed gracefully: every request the server
// read is either received or counted undeliverable.
TEST(NetServe, SlowReaderIsClosedWithoutStallingOthers) {
  constexpr int kWriteTimeoutMs = 4000;
  serve::NetServerConfig scfg;
  scfg.write_timeout_ms = kWriteTimeoutMs;
  scfg.queue_capacity = 1 << 16;  // sheds nothing: every decoded request queues
  scfg.cache_bytes = 1ull << 20;  // repeats of one net: the batches are quick
  serve::NetServer server(shared_estimator(), scfg);
  server.start();

  // Far more than both sides' socket buffers hold. Once the server stops
  // reading, a send makes no progress for send_bytes' 2 s and the loop ends.
  constexpr std::uint64_t kOffered = 50000;
  RawConn slow;
  ASSERT_TRUE(slow.connect_to(server.port(), /*narrow=*/true));
  ::fcntl(slow.fd, F_SETFL, ::fcntl(slow.fd, F_GETFL, 0) | O_NONBLOCK);
  std::uint64_t sent = 0;
  while (sent < kOffered && slow.send_bytes(make_request_bytes(sent + 1, 0)))
    ++sent;
  EXPECT_LT(sent, kOffered);

  RawConn other;
  ASSERT_TRUE(other.connect_to(server.port()));
  const Clock::time_point asked = Clock::now();
  ASSERT_TRUE(other.send_bytes(make_request_bytes(kOffered + 1, 1)));
  const std::vector<serve::ResponseFrame> answer = other.read_responses(1, 5000);
  const double answered_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - asked).count();
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(answer[0].status, ErrorCode::kOk);
  EXPECT_LT(answered_ms, kWriteTimeoutMs / 4);

  ASSERT_TRUE(wait_until(
      [&] { return server.ledger().undeliverable.load() > 0; },
      3 * kWriteTimeoutMs));
  const std::vector<serve::ResponseFrame> received =
      slow.read_responses(0, 5000);
  EXPECT_TRUE(slow.eof);
  server.stop();

  // The server left the stalled client's last requests unread and queued
  // every one it read (the other client's request is the one more).
  const serve::NetServerLedger& ledger = server.ledger();
  const std::uint64_t admitted = ledger.requests_decoded.load() - 1;
  EXPECT_LT(admitted, sent);
  EXPECT_EQ(ledger.rejected_total(), 0u);
  EXPECT_EQ(received.size() + ledger.undeliverable.load(), admitted);
}

TEST(NetServe, ClientRetryCountersTrackInjectedFaults) {
  const EvalData& eval = shared_eval();
  InjectorGuard guard;
  FaultInjector& injector = FaultInjector::global();
  FaultInjector::Config fcfg;
  fcfg.seed = 777;
  fcfg.probability = 0.2;
  fcfg.site_mask = core::kNetworkSiteMask;
  injector.configure(fcfg);

  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();

  const std::uint64_t retries0 = global_counter("gnntrans_client_retries_total");
  const std::uint64_t transport0 =
      global_counter("gnntrans_client_retries_transport_total");
  const std::uint64_t overload0 =
      global_counter("gnntrans_client_retries_overload_total");
  const std::uint64_t malformed0 =
      global_counter("gnntrans_client_retries_malformed_total");
  const std::uint64_t reconnects0 =
      global_counter("gnntrans_client_reconnects_total");
  const std::uint64_t backoff0 =
      global_counter("gnntrans_client_backoff_ms_total");

  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.client_id = 31;
  ccfg.max_retries = 6;
  ccfg.backoff_initial_ms = 1;
  ccfg.backoff_max_ms = 4;
  serve::NetClient client(ccfg);
  std::size_t served = 0;
  std::uint64_t transport_failures = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    const serve::NetClient::Result result =
        client.estimate(eval.nets[i % eval.nets.size()],
                        eval.contexts[i % eval.contexts.size()]);
    if (result.served()) ++served;
    transport_failures += result.transport_failures;
  }
  server.stop();
  injector.disarm();

  EXPECT_GT(served, 0u);
  ASSERT_GT(transport_failures, 0u);  // 20% fault odds over 64 requests

  const std::uint64_t retries =
      global_counter("gnntrans_client_retries_total") - retries0;
  const std::uint64_t transport =
      global_counter("gnntrans_client_retries_transport_total") - transport0;
  const std::uint64_t overload =
      global_counter("gnntrans_client_retries_overload_total") - overload0;
  const std::uint64_t malformed =
      global_counter("gnntrans_client_retries_malformed_total") - malformed0;
  const std::uint64_t reconnects =
      global_counter("gnntrans_client_reconnects_total") - reconnects0;
  const std::uint64_t backoff =
      global_counter("gnntrans_client_backoff_ms_total") - backoff0;

  // Every retry is classified by the failure that caused it — the by-reason
  // counters partition the total exactly.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(transport, 0u);
  EXPECT_EQ(retries, transport + overload + malformed);
  // Connection-killing faults force reconnects, and every retry slept at
  // least backoff_initial_ms (1 ms) before resending.
  EXPECT_GT(reconnects, 0u);
  EXPECT_GE(backoff, retries);
}

// ---------------------------------------------------------------------------
// Malformed frames over the wire: typed rejects and clean closes, never a
// crash or a hang.

TEST(NetServe, GarbagePayloadRejectedConnectionSurvives) {
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  server.start();

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  // A well-framed garbage payload: framing survives, so the connection does.
  const std::string junk = "this is not a request payload at all......";
  std::string frame(4, '\0');
  const std::uint32_t len = static_cast<std::uint32_t>(junk.size());
  std::memcpy(frame.data(), &len, 4);  // test runs little-endian (x86/arm)
  frame += junk;
  ASSERT_TRUE(conn.send_bytes(frame));
  std::vector<serve::ResponseFrame> responses = conn.read_responses(1, 2000);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ErrorCode::kMalformedFrame);

  // Same connection, now a valid request: served.
  ASSERT_TRUE(conn.send_bytes(make_request_bytes(7, 0)));
  responses = conn.read_responses(1, 2000);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].request_id, 7u);
  EXPECT_EQ(responses[0].status, ErrorCode::kOk);

  server.stop();
  EXPECT_EQ(server.ledger().rejected_malformed.load(), 1u);
  EXPECT_EQ(server.ledger().served.load(), 1u);
}

TEST(NetServe, OversizeDeclaredLengthRejectedAndClosed) {
  serve::NetServerConfig scfg;
  scfg.max_frame_bytes = 4096;
  serve::NetServer server(shared_estimator(), scfg);
  server.start();

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  std::string prefix(4, '\0');
  const std::uint32_t declared = 100000;  // > max_frame_bytes
  std::memcpy(prefix.data(), &declared, 4);
  ASSERT_TRUE(conn.send_bytes(prefix));
  const std::vector<serve::ResponseFrame> responses =
      conn.read_responses(0, 2000);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ErrorCode::kMalformedFrame);
  EXPECT_EQ(responses[0].request_id, 0u);  // connection-level reject
  EXPECT_TRUE(conn.eof);                   // stream unrecoverable: closed

  server.stop();
  EXPECT_EQ(server.ledger().rejected_malformed.load(), 1u);
}

TEST(NetServe, TruncatedPrefixAndMidFrameDisconnectAreClean) {
  serve::NetServerConfig scfg;
  serve::NetServer server(shared_estimator(), scfg);
  server.start();

  {
    // Two bytes of length prefix, then gone.
    RawConn conn;
    ASSERT_TRUE(conn.connect_to(server.port()));
    ASSERT_TRUE(conn.send_bytes(std::string_view("\x10\x00", 2)));
    conn.close();
  }
  {
    // Valid prefix, half the payload, then gone.
    const std::string frame = make_request_bytes(11, 1);
    RawConn conn;
    ASSERT_TRUE(conn.connect_to(server.port()));
    ASSERT_TRUE(conn.send_bytes(
        std::string_view(frame).substr(0, 4 + (frame.size() - 4) / 2)));
    conn.close();
  }
  ASSERT_TRUE(wait_until(
      [&] { return server.ledger().connections_accepted.load() >= 2; }, 2000));
  // The torn streams never produced a frame — and the server still serves.
  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  serve::NetClient client(ccfg);
  const serve::NetClient::Result result =
      client.estimate(shared_eval().nets[0], shared_eval().contexts[0]);
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  server.stop();
  EXPECT_EQ(server.ledger().frames.load(), 1u);  // only the healthy request
  EXPECT_EQ(server.ledger().rejected_malformed.load(), 0u);
}

TEST(NetServe, HalfOpenPartialFrameTimesOut) {
  serve::NetServerConfig scfg;
  scfg.read_timeout_ms = 100;
  serve::NetServer server(shared_estimator(), scfg);
  server.start();

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  ASSERT_TRUE(conn.send_bytes(std::string_view("\x10\x00", 2)));
  // The server must close the half-open connection on its own.
  (void)conn.read_responses(0, 3000);
  EXPECT_TRUE(conn.eof);
  server.stop();
}

// ---------------------------------------------------------------------------
// Admission: bounded queue load-shedding, deadlines, graceful drain.

TEST(NetServe, QueueFullShedsLoadWithTypedReject) {
  serve::NetServerConfig scfg;
  scfg.queue_capacity = 2;
  scfg.batch_max = 1024;
  serve::NetServer server(shared_estimator(), scfg);
  serve::NetServerTestPeer::hold(server, true);  // the queue must fill
  server.start();

  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  for (std::uint64_t id = 1; id <= 3; ++id)
    ASSERT_TRUE(conn.send_bytes(make_request_bytes(id, id)));
  ASSERT_TRUE(wait_until(
      [&] { return server.ledger().rejected_overload.load() == 1; }, 2000));
  EXPECT_EQ(server.ledger().requests_decoded.load(), 3u);

  server.stop();  // drains the two admitted requests
  const std::vector<serve::ResponseFrame> responses =
      conn.read_responses(3, 2000);
  ASSERT_EQ(responses.size(), 3u);
  std::size_t ok = 0, overloaded = 0;
  for (const serve::ResponseFrame& r : responses) {
    if (r.status == ErrorCode::kOk) ++ok;
    if (r.status == ErrorCode::kOverloaded) {
      ++overloaded;
      EXPECT_EQ(r.request_id, 3u);  // the third frame, in arrival order
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(overloaded, 1u);
  EXPECT_EQ(server.ledger().served.load(), 2u);
}

TEST(NetServe, ExpiredDeadlineRejectedAtTriage) {
  serve::NetServer server(shared_estimator(), serve::NetServerConfig{});
  serve::NetServerTestPeer::hold(server, true);
  server.start();
  std::thread release =
      release_after_dwell(server, 50);  // 50 ms queue dwell >> 1 ms budget

  serve::NetClientConfig ccfg;
  ccfg.port = server.port();
  ccfg.max_retries = 0;
  serve::NetClient client(ccfg);
  const serve::NetClient::Result result = client.estimate(
      shared_eval().nets[0], shared_eval().contexts[0], /*deadline_us=*/1000);
  release.join();
  EXPECT_EQ(result.status.code(), ErrorCode::kDeadlineExceeded);
  EXPECT_FALSE(result.served());
  server.stop();
  EXPECT_EQ(server.ledger().rejected_deadline.load(), 1u);
  EXPECT_EQ(server.ledger().served.load(), 0u);
}

TEST(NetServe, GracefulDrainServesQueuedAndRejectsNew) {
  serve::NetServerConfig scfg;
  scfg.batch_max = 1024;
  scfg.queue_capacity = 4096;
  serve::NetServer server(shared_estimator(), scfg);
  serve::NetServerTestPeer::hold(server, true);  // nothing is served until
  server.start();                                // the drain

  constexpr std::uint64_t kQueued = 120;
  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  // Requests sent after the drain starts use their own connection, one at a
  // time: closing a socket that still holds unread input resets the stream
  // and drops the responses not yet delivered, so the queued connection must
  // carry nothing the server will not read.
  RawConn poke;
  ASSERT_TRUE(poke.connect_to(server.port()));
  ASSERT_TRUE(wait_until(
      [&] { return server.ledger().connections_accepted.load() == 2; }, 5000));
  for (std::uint64_t id = 1; id <= kQueued; ++id)
    ASSERT_TRUE(conn.send_bytes(make_request_bytes(id, id)));
  ASSERT_TRUE(wait_until(
      [&] { return server.ledger().requests_decoded.load() == kQueued; },
      5000));

  std::thread stopper([&] { server.stop(); });
  // Once stop() has closed admission, poke it with new requests: every one
  // that still reaches admission must get a typed kShuttingDown. The wait
  // spins so the first poke lands while the queued batch is being served.
  const auto poke_deadline = Clock::now() + std::chrono::seconds(5);
  while (!server.draining() && Clock::now() < poke_deadline)
    std::this_thread::yield();
  EXPECT_TRUE(server.draining());
  std::vector<serve::ResponseFrame> responses;
  for (std::uint64_t i = 0; i < 3; ++i) {
    if (!poke.send_bytes(make_request_bytes(1000 + i, i))) break;
    const std::vector<serve::ResponseFrame> answer = poke.read_responses(1, 2000);
    responses.insert(responses.end(), answer.begin(), answer.end());
    if (answer.empty()) break;  // the drain closed the connection first
  }
  stopper.join();

  const std::vector<serve::ResponseFrame> queued = conn.read_responses(0, 3000);
  responses.insert(responses.end(), queued.begin(), queued.end());
  std::size_t ok = 0, shutdown = 0, other = 0;
  for (const serve::ResponseFrame& r : responses) {
    if (r.status == ErrorCode::kOk)
      ++ok;
    else if (r.status == ErrorCode::kShuttingDown)
      ++shutdown;
    else
      ++other;
  }
  // Drain guarantee: everything queued before the drain is served; everything
  // admitted after is a typed reject; nothing vanishes without an answer.
  EXPECT_EQ(ok, kQueued);
  EXPECT_EQ(other, 0u);
  EXPECT_GE(shutdown, 1u);
  EXPECT_EQ(ok, server.ledger().served.load());
  EXPECT_EQ(shutdown, server.ledger().rejected_shutdown.load());
  EXPECT_EQ(ok + shutdown, server.ledger().requests_decoded.load());
}

TEST(NetServe, DrainDeliversServedResponsesPastUnreadInput) {
  serve::NetServerConfig scfg;
  scfg.batch_max = 1024;
  scfg.queue_capacity = 4096;
  scfg.read_timeout_ms = 1000;  // bounds the drain's wait for our EOF
  serve::NetServer server(shared_estimator(), scfg);
  serve::NetServerTestPeer::hold(server, true);  // nothing is served until
  server.start();                                // the drain

  constexpr std::uint64_t kQueued = 120;
  RawConn conn;
  ASSERT_TRUE(conn.connect_to(server.port()));
  for (std::uint64_t id = 1; id <= kQueued; ++id)
    ASSERT_TRUE(conn.send_bytes(make_request_bytes(id, id)));
  ASSERT_TRUE(wait_until(
      [&] { return server.ledger().requests_decoded.load() == kQueued; },
      5000));

  std::thread stopper([&] { server.stop(); });
  EXPECT_TRUE(wait_until([&] { return server.draining(); }, 5000));
  // Keep sending on the same connection, reading nothing, until a request
  // goes unread: the server has stopped reading, so the drain closes this
  // connection with that input pending. The loop is bounded by wall time,
  // not by a frame count: a slow (sanitized) build's flush of the queued
  // nets can outlast any fixed number of frames.
  std::uint64_t sent = kQueued;
  bool unread = false;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(10);
  while (!unread && Clock::now() < give_up) {
    if (!conn.send_bytes(make_request_bytes(1000 + sent, sent))) break;
    ++sent;
    unread = !wait_until(
        [&] { return server.ledger().frames.load() == sent; }, 100);
  }
  stopper.join();
  EXPECT_TRUE(unread);

  const std::vector<serve::ResponseFrame> responses =
      conn.read_responses(0, 3000);
  EXPECT_TRUE(conn.eof);
  std::size_t ok = 0, shutdown = 0;
  for (const serve::ResponseFrame& r : responses) {
    ok += r.status == ErrorCode::kOk;
    shutdown += r.status == ErrorCode::kShuttingDown;
  }
  EXPECT_EQ(ok, kQueued);
  EXPECT_EQ(ok, server.ledger().served.load());
  EXPECT_EQ(shutdown, server.ledger().rejected_shutdown.load());
  EXPECT_EQ(ok + shutdown, responses.size());
}

// ---------------------------------------------------------------------------
// The soak: 8 concurrent clients, 10k requests, 5% injected socket faults.
// Zero crashes/hangs, an exact reject/served ledger, and bitwise identity
// with the direct batch path on every served response.

TEST(NetServeSoak, SurvivesInjectedNetworkFaults) {
  const EvalData& eval = shared_eval();
  InjectorGuard guard;
  // Default-rate head sampling stays on for the whole soak: the bitwise
  // checks below double as proof that tracing is non-intrusive under faults,
  // retries and concurrency.
  TraceGuard tracing(/*head_rate=*/1.0 / 64.0);
  FaultInjector& injector = FaultInjector::global();
  FaultInjector::Config fcfg;
  fcfg.seed = 20260807;
  fcfg.probability = 0.05;
  fcfg.site_mask = core::kNetworkSiteMask;  // model path stays fault-free
  injector.configure(fcfg);

  serve::NetServerConfig scfg;
  scfg.batch_max = 32;
  scfg.queue_capacity = 4096;
  // Caching on: the soak's 10k requests cycle over 32 distinct nets, so the
  // bulk of the traffic must be served from the content-addressed cache —
  // with the exact same bitwise-identity guarantee as the model path.
  scfg.cache_bytes = 32ull << 20;
  serve::NetServer server(shared_estimator(), scfg);
  server.start();

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 1250;  // 10k total
  struct Tally {
    std::uint64_t served = 0;
    std::uint64_t timeouts = 0;       ///< retries exhausted (kTimeout)
    std::uint64_t typed_other = 0;    ///< any other terminal status (bug)
    std::uint64_t transport_failures = 0;
    std::uint64_t attempts = 0;
    std::uint64_t mismatches = 0;     ///< served but not bitwise-identical
    std::uint64_t bad_provenance = 0; ///< served but neither model nor cached
    std::uint64_t cached = 0;         ///< served with kCached provenance
  };
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::NetClientConfig ccfg;
      ccfg.port = server.port();
      ccfg.client_id = static_cast<std::uint32_t>(c + 1);
      ccfg.max_retries = 6;
      ccfg.backoff_initial_ms = 1;
      ccfg.backoff_max_ms = 8;
      ccfg.request_timeout_ms = 5000;
      serve::NetClient client(ccfg);
      Tally& tally = tallies[c];
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t idx = (i * kClients + c) % eval.items.size();
        const serve::NetClient::Result result =
            client.estimate(eval.nets[idx], eval.contexts[idx]);
        tally.attempts += result.attempts;
        tally.transport_failures += result.transport_failures;
        if (result.served()) {
          ++tally.served;
          const bool is_cached =
              result.provenance == core::EstimateProvenance::kCached;
          if (is_cached) ++tally.cached;
          if ((result.provenance != core::EstimateProvenance::kModel &&
               !is_cached) ||
              !result.status.ok())
            ++tally.bad_provenance;
          if (!paths_values_bitwise_equal(result.paths, eval.reference[idx]))
            ++tally.mismatches;
        } else if (result.status.code() == ErrorCode::kTimeout) {
          ++tally.timeouts;
        } else {
          ++tally.typed_other;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.stop();
  injector.disarm();

  Tally total;
  for (const Tally& t : tallies) {
    total.served += t.served;
    total.timeouts += t.timeouts;
    total.typed_other += t.typed_other;
    total.transport_failures += t.transport_failures;
    total.attempts += t.attempts;
    total.mismatches += t.mismatches;
    total.bad_provenance += t.bad_provenance;
    total.cached += t.cached;
  }
  const serve::NetServerLedger& ledger = server.ledger();
  const std::uint64_t faults_accept = ledger.faults_accept.load();
  const std::uint64_t faults_read = ledger.faults_read.load();
  const std::uint64_t faults_write = ledger.faults_write.load();
  const std::uint64_t faults_decode = ledger.faults_decode.load();

  // Every request resolved to exactly one classified outcome — no hangs, no
  // silent drops. (With 7 attempts at ~15% per-attempt fault odds, retries
  // exhaust with probability ~2e-6 per request; a handful of kTimeout
  // outcomes is legal, unclassified outcomes are not.)
  EXPECT_EQ(total.served + total.timeouts + total.typed_other,
            kClients * kPerClient);
  EXPECT_EQ(total.typed_other, 0u);
  EXPECT_LT(total.timeouts, 10u);

  // Served responses: model or cached provenance only, values
  // bitwise-identical to the direct (uncached) estimate_batch reference — a
  // cache hit must be indistinguishable from recomputation except for its
  // tag.
  EXPECT_EQ(total.mismatches, 0u);
  EXPECT_EQ(total.bad_provenance, 0u);

  // The cache did the heavy lifting (32 distinct nets under 10k requests),
  // and its counters reconcile exactly with the inference stats: every net
  // the batcher timed did exactly one lookup, every hit was served kCached,
  // every miss ran the model. The four-way provenance identity holds.
  const core::InferenceStats inference = server.stats();
  ASSERT_NE(server.cache(), nullptr);
  const core::EstimateCacheStats cstats = server.cache()->stats();
  EXPECT_GT(total.cached, 0u);
  EXPECT_GT(cstats.hits, cstats.misses);
  EXPECT_EQ(cstats.hits + cstats.misses, inference.nets);
  EXPECT_EQ(cstats.hits, inference.cached_nets);
  EXPECT_EQ(cstats.misses, inference.model_nets);
  EXPECT_EQ(inference.model_nets + inference.fallback_nets +
                inference.failed_nets + inference.cached_nets,
            inference.nets);
  EXPECT_EQ(inference.fallback_nets, 0u);
  EXPECT_EQ(inference.failed_nets, 0u);

  // The soak actually injected faults at a ~5% rate somewhere.
  EXPECT_GT(faults_accept + faults_read + faults_write + faults_decode, 100u);

  // Ledger identities — every frame and every decoded request lands in
  // exactly one bucket.
  EXPECT_EQ(ledger.frames.load(), ledger.requests_decoded.load() + faults_read);
  EXPECT_EQ(ledger.requests_decoded.load(),
            ledger.served.load() + faults_write + faults_decode);
  EXPECT_EQ(ledger.rejected_malformed.load(), faults_decode);
  EXPECT_EQ(ledger.rejected_overload.load(), 0u);  // blocking clients: ≤ 8 deep
  EXPECT_EQ(ledger.rejected_shutdown.load(), 0u);
  EXPECT_EQ(ledger.rejected_deadline.load(), 0u);
  EXPECT_EQ(ledger.undeliverable.load(), 0u);

  // The injector's own counters match the ledger site by site, and the model
  // ladder never fired.
  EXPECT_EQ(injector.injected_at(FaultSite::kAccept), faults_accept);
  EXPECT_EQ(injector.injected_at(FaultSite::kNetRead), faults_read);
  EXPECT_EQ(injector.injected_at(FaultSite::kNetWrite), faults_write);
  EXPECT_EQ(injector.injected_at(FaultSite::kNetDecode), faults_decode);
  for (const FaultSite site :
       {FaultSite::kValidate, FaultSite::kFeaturize, FaultSite::kForward,
        FaultSite::kNonFinite, FaultSite::kDeadline})
    EXPECT_EQ(injector.injected_at(site), 0u) << to_string(site);

  // Client-observed transport failures are exactly the connection-killing
  // faults (accept/read/write); decode faults surface as typed rejects.
  EXPECT_EQ(total.transport_failures,
            faults_accept + faults_read + faults_write);
  // Every attempt either produced a frame or died at an injected accept.
  EXPECT_EQ(total.attempts, ledger.frames.load() + faults_accept);

  // Head sampling at 1/64 over 10k requests: a healthy population of stage
  // breakdowns was retained, and every one of them — assembled under faults,
  // retries and 8-way concurrency — satisfies the stage-clock invariants.
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::global();
  EXPECT_GT(flight.requests_recorded(), 0u);
  for (const telemetry::FlightRecord& t : flight.slowest_requests()) {
    EXPECT_NE(t.trace_id, 0u);
    const double wall = static_cast<double>(t.total_us) * 1e-6;
    EXPECT_GT(wall, 0.0);
    for (const telemetry::Stage s : kRequestStages)
      EXPECT_GE(stage_seconds(t, s), 0.0);
    const double slack = std::max(0.05 * wall, 2e-4);
    EXPECT_NEAR(request_stage_sum_seconds(t), wall, slack)
        << "trace 0x" << std::hex << t.trace_id;
  }
}

}  // namespace
