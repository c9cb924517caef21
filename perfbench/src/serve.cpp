// serve_mixed: the real run_serve_loop at threads = nproc behind a pipe
// pair, with a pattern store that starts cold. One client on one
// connection runs a closed loop with a window of nproc outstanding
// requests; the loop answers that pipelining caller batch by batch.
//
// The traced pass replays the same request stream through a fresh server
// with one span per request (its round trip), then replays a prefix of the
// stream serially through FlatRequest::parse and handle_request to split a
// round trip into handling and queueing.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "core/pattern_store.hpp"
#include "inputs.hpp"
#include "serve/fd_stream.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace streamflow;

namespace {

/// Requests replayed serially to measure parse and handle costs.
constexpr std::size_t kHandleReplay = 400;
/// Responses a measured pass collects at least.
constexpr std::size_t kMinRequests = 4000;

/// A serve loop on its own thread behind two pipes, with its own cold
/// store. The destructor asks it to shut down and joins it.
class Server {
 public:
  explicit Server(std::size_t threads) {
    if (pipe(to_server_) != 0 || pipe(from_server_) != 0) {
      throw std::runtime_error("pipe() failed");
    }
    ServeOptions options;
    options.threads = threads;
    options.store = &store_;
    thread_ = std::thread([this, options] {
      FdStreamBuf in_buf(to_server_[0]);
      FdStreamBuf out_buf(from_server_[1]);
      std::istream in(&in_buf);
      std::ostream out(&out_buf);
      result_ = run_serve_loop(in, out, options);
    });
    request_buf_ = std::make_unique<FdStreamBuf>(to_server_[1]);
    response_buf_ = std::make_unique<FdStreamBuf>(from_server_[0]);
    requests_ = std::make_unique<std::ostream>(request_buf_.get());
    responses_ = std::make_unique<std::istream>(response_buf_.get());
  }

  ~Server() {
    try {
      shutdown();
    } catch (const std::exception& e) {
      note(std::string("serve shutdown: ") + e.what());
    }
    // If the shutdown request failed, end of input stops the loop.
    requests_.reset();
    request_buf_.reset();
    close(to_server_[1]);
    if (thread_.joinable()) thread_.join();
    responses_.reset();
    response_buf_.reset();
    close(to_server_[0]);
    close(from_server_[0]);
    close(from_server_[1]);
  }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void send(const std::string& line) {
    *requests_ << line << '\n' << std::flush;
  }

  std::string receive() {
    std::string line;
    if (!std::getline(*responses_, line)) {
      throw std::runtime_error("server closed the response stream");
    }
    return line;
  }

  /// Stops the loop (answering the shutdown request) and joins it.
  const ServeResult& shutdown() {
    if (thread_.joinable()) {
      send("{\"op\":\"shutdown\"}");
      (void)receive();
      thread_.join();
    }
    return result_;
  }

  PatternStore& store() { return store_; }

 private:
  PatternStore store_;
  int to_server_[2] = {-1, -1};
  int from_server_[2] = {-1, -1};
  ServeResult result_;
  std::unique_ptr<FdStreamBuf> request_buf_;
  std::unique_ptr<FdStreamBuf> response_buf_;
  std::unique_ptr<std::ostream> requests_;
  std::unique_ptr<std::istream> responses_;
  std::thread thread_;  // joined by the destructor before members go
};

struct Pass {
  std::size_t answered = 0;
  std::vector<char> bad;         ///< response k failed serve_ok
  std::vector<double> sent;      ///< send time of request k
  std::vector<double> received;  ///< receive time of response k
  double start = 0.0;
  double wall = 0.0;
};

/// Closed loop over `stream`: at most `window` requests outstanding, the
/// next request sent as soon as a response arrives. Stops sending once
/// `seconds` have elapsed and `min_requests` were answered, or after
/// `limit` requests (pass infinite seconds to replay exactly `limit`).
/// Each response is checked against the expected bytes as it arrives and
/// then dropped, so the client's memory does not grow with the run.
Pass drive(Server& server, const ServePool& pool,
           const std::vector<std::size_t>& stream,
           const std::vector<std::string>& expected, std::size_t window,
           double seconds, std::size_t min_requests, std::size_t limit) {
  Pass pass;
  const double start = now_s();
  pass.start = start;
  std::size_t sent = 0;
  std::size_t failures = 0;
  bool sending = true;
  while (true) {
    while (sending && sent < limit && sent - pass.answered < window) {
      pass.sent.push_back(now_s());
      server.send(pool.lines[stream[sent]]);
      ++sent;
    }
    if (pass.answered == sent) break;
    const std::string response = server.receive();
    pass.received.push_back(now_s());
    pass.bad.push_back(!serve_ok(response, expected[stream[pass.answered]]));
    if (pass.bad.back()) {
      if (++failures <= 5) {
        note("check failed: serve response " + std::to_string(pass.answered) +
             ": " + response.substr(0, 160));
      }
    }
    ++pass.answered;
    const double elapsed = now_s() - start;
    if ((elapsed >= seconds && pass.answered >= min_requests) ||
        elapsed >= kMaxMeasureSeconds || sent >= limit) {
      sending = false;
    }
  }
  pass.wall = now_s() - start;
  return pass;
}

/// Storeless reference answers of every pool line, computed on nproc
/// threads before the measured pass.
std::vector<std::string> references(const ServePool& pool) {
  std::vector<std::string> answers(pool.lines.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < nproc(); ++w) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < answers.size();
           i = next.fetch_add(1)) {
        answers[i] = handle_request(pool.lines[i], ServeOptions{}).response;
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  return answers;
}

struct Prepared {
  ServePool pool;
  std::vector<std::size_t> stream;
  std::unique_ptr<Server> server;
};

Prepared prepare(std::uint64_t seed, std::size_t threads) {
  Prepared prepared;
  prepared.pool = serve_pool();
  prepared.stream = serve_stream(seed, 200'000);
  prepared.server = std::make_unique<Server>(threads);
  prepared.server->send("{\"op\":\"ping\"}");
  (void)prepared.server->receive();
  // Warm-up: the analyze and simulate lines once each through a storeless
  // handle_request pay the process's lazy set-up (samplers' jump tables,
  // first allocations); the server's store stays cold.
  for (std::size_t i = 0; i < prepared.pool.lines.size(); ++i) {
    if (prepared.pool.ops[i] != "search") {
      (void)handle_request(prepared.pool.lines[i], ServeOptions{});
    }
  }
  return prepared;
}

}  // namespace

const std::vector<MetricSpec>& serve_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m{
        {"serve.parse_us", "us", "lower"},
        {"serve.handle_us.analyze", "us", "lower"},
        {"serve.handle_us.search", "us", "lower"},
        {"serve.handle_us.simulate", "us", "lower"},
        {"serve.queue_wait_us", "us", "lower"},
        {"serve.batches", "count", "lower"},
        {"serve.batch_size_mean", "count", "higher"},
        {"serve.errors", "count", "lower"},
        {"serve.p99_ms", "ms", "lower"},
        {"core.store_hits", "count", "higher"},
        {"core.store_misses", "count", "lower"},
        {"core.store_publishes", "count", "lower"},
        {"core.store_hit_rate", "ratio", "higher"},
    };
    with_trace_accounting(m);
    return m;
  }();
  return kMetrics;
}

Outcome run_serve(const RunConfig& config) {
  std::optional<Prepared> prepared;
  const double setup_s =
      timed_setup([&] { prepared.emplace(prepare(config.seed, nproc())); });
  const ServePool& pool = prepared->pool;
  const std::vector<std::size_t>& stream = prepared->stream;
  // The client keeps nproc requests outstanding whatever the worker count,
  // so the loop always has a batch waiting instead of idling between
  // round trips.
  const std::size_t window = nproc();

  // The storeless answers are computed outside the timed window; the
  // server's store is untouched by them.
  const std::vector<std::string> expected = references(pool);
  const Pass pass =
      drive(*prepared->server, pool, stream, expected, window, config.seconds,
            std::max(min_samples_for(0.99), kMinRequests),
            stream.size());
  const ServeResult served = prepared->server->shutdown();
  const std::size_t count = pass.answered;

  Outcome outcome;
  outcome.attempted = count;
  std::vector<char> bad = pass.bad;
  std::vector<double> latencies(count);
  for (std::size_t k = 0; k < count; ++k) {
    latencies[k] = pass.received[k] - pass.sent[k];
  }
  // Serve's figures are whole-pass wall time: the client keeps the loop
  // busy, so there is no gap between operations to run the host gauge in.
  const Percentile p50 = percentile(latencies, 0.5);
  const Percentile p99 = percentile(latencies, 0.99);
  note(describe("serve round trip, wall", p50));
  note(describe("serve round trip, wall", p99));
  note("serve loop: " + std::to_string(served.requests) + " requests in " +
       std::to_string(served.batches) + " batches (set-up ping and shutdown "
       "included), window " + std::to_string(window));
  outcome.end_to_end["ops_per_s"] = static_cast<double>(count) / pass.wall;
  outcome.end_to_end["p50_ms"] = p50.value * 1e3;
  outcome.end_to_end["setup_s"] = setup_s;
  outcome.end_to_end["peak_rss_mb"] = peak_rss_mb();

  if (config.trace) {
    Tracer tracer;
    Server server(nproc());
    const Pass traced =
        drive(server, pool, stream, expected, window,
              std::numeric_limits<double>::infinity(), count, count);
    for (std::size_t k = 0; k < traced.answered; ++k) bad[k] |= traced.bad[k];
    for (std::size_t k = 0; k < traced.answered; ++k) {
      tracer.record("serve", "request", traced.sent[k], traced.received[k], -1,
                    static_cast<long>(k));
    }
    const PatternStoreStats store = server.store().stats();
    const ServeResult traced_served = server.shutdown();

    // Serial replay of a prefix: parse and handle costs per request, and
    // what the traced round trip spent beyond handling (queueing).
    PatternStore replay_store;
    ServeOptions replay_options;
    replay_options.store = &replay_store;
    std::vector<double> parse_us;
    std::map<std::string, std::vector<double>> handle_us;
    std::vector<double> wait_us;
    const std::size_t replay = std::min(kHandleReplay, traced.answered);
    for (std::size_t k = 0; k < replay; ++k) {
      const std::string& line = pool.lines[stream[k]];
      double t0 = now_s();
      (void)FlatRequest::parse(line);
      parse_us.push_back((now_s() - t0) * 1e6);
      t0 = now_s();
      (void)handle_request(line, replay_options);
      const double handle = (now_s() - t0) * 1e6;
      handle_us[pool.ops[stream[k]]].push_back(handle);
      wait_us.push_back((traced.received[k] - traced.sent[k]) * 1e6 - handle);
    }

    Metrics& m = outcome.per_layer;
    m["serve.parse_us"] = mean(parse_us);
    for (const char* op : {"analyze", "search", "simulate"}) {
      m[std::string("serve.handle_us.") + op] = mean(handle_us[op]);
    }
    m["serve.queue_wait_us"] = mean(wait_us);
    // The shutdown request is one batch of one; leave it out.
    const double batches = static_cast<double>(traced_served.batches - 1);
    m["serve.batches"] = batches;
    m["serve.batch_size_mean"] =
        batches > 0 ? static_cast<double>(traced_served.requests - 1) / batches
                    : std::nan("");
    m["serve.errors"] = static_cast<double>(traced_served.errors);
    // Under the percentile rule an unsupported p99 is not a number.
    m["serve.p99_ms"] = p99.supported ? p99.value * 1e3 : std::nan("");
    m["core.store_hits"] = static_cast<double>(store.hits);
    m["core.store_misses"] = static_cast<double>(store.misses);
    m["core.store_publishes"] = static_cast<double>(store.publishes);
    m["core.store_hit_rate"] =
        store.hits + store.misses > 0
            ? static_cast<double>(store.hits) /
                  static_cast<double>(store.hits + store.misses)
            : std::nan("");
    add_trace_accounting(tracer, pass.wall, traced.wall, window, m);
    tracer.write_chrome_json(config.out_dir + "/trace_serve_mixed.json");
  }
  outcome.failed =
      static_cast<std::size_t>(std::count(bad.begin(), bad.end(), 1));
  outcome.correct = outcome.failed == 0;
  return outcome;
}

}  // namespace perfbench
