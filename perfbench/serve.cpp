// The serve layer, measured in batch_small's traced run: NetServer on
// loopback (pool of workers(), estimate cache at the CLI default) driven
// by one generator thread over nproc pipelined connections, with distinct
// batch_small-distribution nets on a seeded Poisson schedule. The load is an
// open loop: a stall in the server delays later requests instead of thinning
// the load, and every request is timed from when it was due.
//
//  - At a fixed nominal rate: encode/decode cost per frame, latency beyond
//    the in-process model time, batch size, refusals and generator lag.
//  - A ladder of fixed absolute offered rates finds the highest rate whose
//    p99 stays within the objective (serve.slo_rps).
//
// Serving latency is not an end-to-end metric: on a box shared with other
// tenants it moved between two sets of runs by more than any usable bound
// (README.md, "Why serving has no workload of its own").
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

#include "core/estimate_cache.hpp"
#include "core/telemetry/net_io.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Rate of the nominal phase, well below the knee at the parent commit.
constexpr double kNominalRate = 1000;
/// Fixed absolute offered rates (requests/s) of the ladder, four rungs per
/// doubling, climbed from kLadderStart.
constexpr double kLadder[] = {1000, 1189, 1414, 1682, 2000, 2378, 2828,
                              3364, 4000, 4757, 5657, 6727, 8000, 9514,
                              11314, 13454, 16000};
constexpr std::size_t kLadderStart = 4;  // 2000/s
/// The ladder's objective: p99 within 25 ms and no growing backlog. On a
/// 4-core box the unloaded p99 already wanders between 9 and 23 ms with
/// scheduling noise; a tighter limit would cross inside that noise.
constexpr double kSloP99Ms = 25.0;
constexpr double kSloAchieved = 0.98;
/// How long the generator waits for the last responses of a phase.
constexpr double kDrainSeconds = 5.0;

struct Phase {
  /// Request rate of the schedule, and response rate of the server, each
  /// between its first and last event. With no growing backlog the two agree.
  double realized = 0.0;
  double achieved = 0.0;
  std::vector<double> lat_ms;  ///< due -> response, served requests
  std::vector<double> lag_ms;  ///< due -> sent
  std::vector<double> done_s;  ///< response times of served requests
  std::uint64_t rejected = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t bad = 0;             ///< failed output checks
  std::vector<double> overhead_us;   ///< latency minus in-process net time
};

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

class Generator {
 public:
  Generator(const Options& options, const Fixture& fixture, std::uint16_t port)
      : options_(options), fixture_(fixture), port_(port),
        rng_(options.seed * 0x9e3779b97f4a7c15ULL + 3) {}

  /// Offers \p rate requests/s for \p seconds and checks every response
  /// against in-process estimate_batch. Refused or lost requests are
  /// counted, not failed here.
  Phase run(double rate, double seconds, Tracer& tracer, Report& report);

 private:
  const Options& options_;
  const Fixture& fixture_;
  std::uint16_t port_;
  std::mt19937_64 rng_;
  std::uint64_t next_id_ = 1;
};

Phase Generator::run(double rate, double seconds, Tracer& tracer,
                     Report& report) {
  Phase phase;

  // Schedule and inputs, prepared before the clock starts.
  std::vector<double> due;
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(rng_); t < seconds; t += gap(rng_)) due.push_back(t);
  const std::size_t n = due.size();
  NetSet set;
  generate_nets(set, small_net_config(), fixture_.library, rng_, n,
                "r" + std::to_string(next_id_) + "_");
  const std::uint64_t first_id = next_id_;
  next_id_ += n;
  std::vector<std::string> frames(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::RequestFrame req;
    req.request_id = first_id + i;
    req.net = set.nets[i];
    req.context = set.contexts[i];
    const Tracer::Span span(tracer, "serve.encode", req.request_id);
    frames[i] = serve::encode_request(req);
  }

  const std::size_t conns = nproc();
  std::vector<pollfd> fds(conns);
  std::vector<std::string> inbuf(conns);
  for (std::size_t c = 0; c < conns; ++c) {
    fds[c].fd = connect_loopback(port_);
    fds[c].events = POLLIN;
    if (fds[c].fd < 0) report.fail("cannot connect to the server");
  }

  std::vector<serve::ResponseFrame> responses(n);
  std::vector<double> done(n, 0.0);
  std::vector<std::uint8_t> answered(n, 0);
  std::size_t sent = 0, received = 0;
  const auto start = Clock::now();
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  const auto give_up = at(seconds + kDrainSeconds);
  std::string payload;
  char chunk[1 << 16];
  while (received < n && Clock::now() < give_up) {
    while (sent < n && Clock::now() >= at(due[sent])) {
      phase.lag_ms.push_back((seconds_since(start) - due[sent]) * 1e3);
      const int fd = fds[sent % conns].fd;
      if (fd < 0 || !telemetry::send_all(fd, frames[sent], 1000))
        report.fail("send failed for request " + std::to_string(first_id + sent));
      ++sent;
    }
    timespec ts{1, 0};
    if (sent < n) {
      const auto wait = std::max<Clock::duration>(Clock::duration::zero(),
                                                  at(due[sent]) - Clock::now());
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      ts.tv_sec = static_cast<time_t>(ns / 1000000000);
      ts.tv_nsec = static_cast<long>(ns % 1000000000);
    }
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
    for (std::size_t c = 0; c < conns; ++c) {
      if (!(fds[c].revents & POLLIN)) continue;
      const ssize_t got = ::recv(fds[c].fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got == 0) {  // peer closed: stop polling this connection
        ::close(fds[c].fd);
        fds[c].fd = -1;
      }
      if (got <= 0) continue;
      inbuf[c].append(chunk, static_cast<std::size_t>(got));
      while (serve::try_extract_frame(inbuf[c], &payload) ==
             serve::FrameStatus::kFrame) {
        const auto now = Clock::now();
        serve::ResponseFrame resp;
        core::Status status;
        {
          const Tracer::Span span(tracer, "serve.decode", 0);
          status = serve::decode_response(payload, &resp);
        }
        const std::uint64_t idx = resp.request_id - first_id;
        if (!status.ok() || resp.request_id < first_id || idx >= n ||
            answered[idx]) {
          report.fail("undecodable or unexpected response");
          continue;
        }
        answered[idx] = 1;
        ++received;
        done[idx] = std::chrono::duration<double>(now - start).count();
        tracer.record("serve.request", at(due[idx]), now, resp.request_id);
        if (resp.status == core::ErrorCode::kOverloaded) ++phase.rejected;
        else if (resp.status != core::ErrorCode::kOk) ++phase.bad;
        responses[idx] = std::move(resp);
      }
    }
  }
  for (const pollfd& p : fds)
    if (p.fd >= 0) ::close(p.fd);
  phase.timeouts = n - received;
  if (n > 1) phase.realized = static_cast<double>(n - 1) / (due.back() - due.front());

  // Every response must carry the bits in-process estimate_batch computes for
  // the same net; the in-process per-net time gives the serving overhead.
  core::ThreadPool pool(workers());
  core::BatchOptions opts;
  opts.pool = &pool;
  std::vector<core::NetOutcome> outcomes;
  opts.outcomes = &outcomes;
  const auto reference = fixture_.estimator->estimate_batch(set.items(), opts);
  for (std::size_t i = 0; i < n; ++i) {
    if (!answered[i] || responses[i].status != core::ErrorCode::kOk) continue;
    std::vector<core::PathEstimate>& paths = responses[i].paths;
    if (!paths.empty()) maybe_flip(options_, paths.front().delay);
    std::string why = check_estimate(set.nets[i], paths);
    if (why.empty() && !same_bits(paths, reference[i]))
      why = set.nets[i].name + ": served bits differ from in-process estimate_batch";
    if (!why.empty()) {
      ++phase.bad;
      report.fail(why);
      continue;
    }
    phase.lat_ms.push_back((done[i] - due[i]) * 1e3);
    phase.overhead_us.push_back((done[i] - due[i] - outcomes[i].net_seconds) * 1e6);
    phase.done_s.push_back(done[i]);
  }
  if (phase.done_s.size() > 1) {
    const auto [lo, hi] =
        std::minmax_element(phase.done_s.begin(), phase.done_s.end());
    phase.achieved = static_cast<double>(phase.done_s.size() - 1) / (*hi - *lo);
  }
  return phase;
}

/// How far a rung is inside the objective, as ln(limit / p99); negative when
/// it misses it. A growing backlog or any refused, lost or wrong response
/// caps the margin below zero.
double slo_margin(Phase& p) {
  if (p.lat_ms.empty()) return -1.0;
  double m = std::log(kSloP99Ms / quantile(p.lat_ms, 0.99));
  if (p.achieved < kSloAchieved * p.realized)
    m = std::min(m, std::log(p.achieved / (kSloAchieved * p.realized)));
  if (p.rejected + p.timeouts + p.bad > 0) m = std::min(m, -1.0);
  return m;
}

/// The highest offered rate that meets the objective. A coarse climb with
/// short rungs finds the last rung that meets it and the first that misses
/// it; those two run again for longer, and the crossing is interpolated in
/// log-rate from their margins. Refusals at rungs past the knee are the
/// signal being measured, so they lower the margin and are not failures.
double slo_rps(Generator& gen, const Options& options, Report& report) {
  Tracer off(false);
  const auto rung = [&](std::size_t i, double seconds) {
    Phase p = gen.run(kLadder[i], seconds, off, report);
    report.attempt(p.lat_ms.size() + p.rejected + p.timeouts + p.bad);
    const double m = slo_margin(p);
    std::printf("rung %6.0f/s %4.1fs: achieved %7.1f/s p99 %7.2f ms margin %+.3f\n",
                kLadder[i], seconds, p.achieved, quantile(p.lat_ms, 0.99), m);
    return m;
  };
  // A coarse rung that misses runs once more and keeps the better margin,
  // so one scheduling stall on a shared box does not end the climb.
  const auto coarse = [&](std::size_t i) {
    const double m = rung(i, 0.04 * options.seconds);
    return m >= 0.0 ? m : std::max(m, rung(i, 0.04 * options.seconds));
  };
  const std::size_t top = std::size(kLadder) - 1;
  std::size_t i = kLadderStart;
  double m = coarse(i);
  if (m >= 0.0) {
    while (m >= 0.0 && i < top) m = coarse(++i);
  } else {
    while (i > 0 && coarse(i - 1) < 0.0) --i;
  }
  // Bracket [lo, lo + 1] around the crossing (clamped to the ladder).
  const std::size_t lo = m >= 0.0 ? top - 1 : (i == 0 ? 0 : i - 1);
  const double fine_s = 0.15 * options.seconds;
  const double m_lo = rung(lo, fine_s);
  const double m_hi = rung(lo + 1, fine_s);
  const double l_lo = std::log(kLadder[lo]), l_hi = std::log(kLadder[lo + 1]);
  const double slope = (m_hi - m_lo) / (l_hi - l_lo);
  double crossing = slope < 0.0 ? l_lo - m_lo / slope : (m_lo >= 0.0 ? l_hi : l_lo);
  // Extrapolate at most one rung beyond the bracket.
  crossing = std::clamp(crossing, 2.0 * l_lo - l_hi, 2.0 * l_hi - l_lo);
  return std::exp(crossing);
}

}  // namespace

void run_serve_layers(const Options& options, const Fixture& fixture,
                      Tracer& tracer, Report& report) {
  serve::NetServerConfig cfg;  // CLI `serve` defaults: batch 64, flush 2 ms
  cfg.port = 0;
  cfg.threads = workers();
  cfg.cache_bytes = core::EstimateCacheConfig{}.capacity_bytes;
  serve::NetServer server(*fixture.estimator, cfg);
  server.start();
  Generator gen(options, fixture, server.port());
  Tracer off(false);

  // Refused or lost requests at the nominal rate count as failures.
  const auto account = [&](const Phase& p) {
    report.attempt(p.lat_ms.size() + p.rejected + p.timeouts + p.bad);
    for (std::uint64_t i = 0; i < p.rejected + p.timeouts; ++i)
      report.fail("request refused or timed out");
  };

  // Warm-up: pool threads, connections and arenas.
  account(gen.run(kNominalRate, 0.05 * options.seconds, off, report));
  Phase nominal = gen.run(kNominalRate, 0.4 * options.seconds, tracer, report);
  account(nominal);
  const serve::NetServerLedger& ledger = server.ledger();
  const double batch_size_mean =
      ledger.batches.load() == 0
          ? 0.0
          : static_cast<double>(ledger.served.load()) /
                static_cast<double>(ledger.batches.load());
  const double slo = slo_rps(gen, options, report);
  server.stop();

  report.layer("serve.slo_rps", slo, "1/s");
  report.layer("serve.encode_us", tracer.mean_us("serve.encode"), "us");
  report.layer("serve.decode_us", tracer.mean_us("serve.decode"), "us");
  report.layer("serve.overhead_us_p50", quantile(nominal.overhead_us, 0.5), "us");
  report.layer("serve.batch_size_mean", batch_size_mean, "count");
  report.layer("serve.rejected", static_cast<double>(nominal.rejected), "count");
  report.layer("serve.timeouts", static_cast<double>(nominal.timeouts), "count");
  report.layer("bench.gen_lag_ms_p99", quantile(nominal.lag_ms, 0.99), "ms");
  std::printf("serve: nominal %.0f/s, %zu served, p50 %.3f ms, p99 %.3f ms; "
              "slo_rps %.0f/s\n",
              kNominalRate, nominal.lat_ms.size(), quantile(nominal.lat_ms, 0.5),
              quantile(nominal.lat_ms, 0.99), slo);
}

}  // namespace perfbench
