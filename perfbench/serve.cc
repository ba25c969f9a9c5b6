// The served workload, serve_udf: an in-process QueryServer on loopback
// over the UDF catalog, driven open-loop by seeded Poisson arrivals over at
// most four connections, with queries drawn Zipf-skewed from the suite so
// that fingerprints repeat (per-session statistics-memo reuse). Closed-loop
// suite passes over the same connections measure the server's throughput.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/random.h"
#include "common/string_util.h"
#include "obs/json.h"
#include "server/net.h"
#include "server/server.h"
#include "sql/parser.h"

namespace monsoon::perfbench {

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMaxConnections = 4;
constexpr int kMaxSessions = 4;
constexpr int kMinWarmupPasses = 2;
constexpr int kMaxWarmupPasses = 5;
constexpr double kSteadyTolerance = 0.10;
constexpr double kZipfSkew = 1.0;
/// The fixed rate for the latency metrics (about 40% of the ~150 qps the
/// ladder finds on a 4-core box) and the fixed ladder for max_qps_at_slo,
/// in queries/s.
constexpr double kFixedRate = 60;
constexpr double kLadder[] = {60, 80, 100, 120, 140, 160, 180, 200, 240};
constexpr double kSloP99Ms = 200;
/// Shares of the run length: the fixed-rate windows, and the closed-loop
/// passes that follow each window. Each ladder rung gets
/// 1/kLadderRungsBudget of the rest.
constexpr int kLatencyWindows = 5;
constexpr double kFixedShare = 0.60;
constexpr double kClosedLoopShare = 0.25;
constexpr int kLadderRungsBudget = 4;
/// Span query ids of window w start at w * kWindowIdStride.
constexpr uint64_t kWindowIdStride = 100000;

struct Arrival {
  double due_s = 0;  // offset from the phase start
  int query = 0;
};

/// One request as the client saw it, plus the response's accounting.
struct Request {
  int query = 0;
  double due_s = 0, send_s = 0, recv_s = 0, lag_s = 0;
  bool ok = false;  // response status "ok"
  std::string code;
  uint64_t rows = 0, objects = 0, work_units = 0;
  double total_s = 0, plan_s = 0, stats_s = 0, exec_s = 0;
  double execute_rounds = 0, stats_collections = 0;
  double cache_hits = 0, cache_misses = 0;
};

double Number(const obs::JsonValue& object, const std::string& key) {
  const obs::JsonValue* value = object.Find(key);
  return value != nullptr && value->is_number() ? value->number : 0;
}

void ParseResponse(const std::string& line, Request* request) {
  StatusOr<obs::JsonValue> parsed = obs::JsonParse(line);
  if (!parsed.ok() || !parsed->is_object()) return;
  const obs::JsonValue& json = parsed.value();
  const obs::JsonValue* status = json.Find("status");
  const obs::JsonValue* code = json.Find("code");
  request->ok = status != nullptr && status->string_value == "ok";
  request->code = code != nullptr ? code->string_value : "";
  request->rows = static_cast<uint64_t>(Number(json, "rows"));
  request->objects = static_cast<uint64_t>(Number(json, "objects"));
  request->work_units = static_cast<uint64_t>(Number(json, "work_units"));
  request->execute_rounds = Number(json, "execute_rounds");
  request->stats_collections = Number(json, "stats_collections");
  if (const obs::JsonValue* cache = json.Find("udf_cache")) {
    request->cache_hits = Number(*cache, "hits");
    request->cache_misses = Number(*cache, "misses");
  }
  if (const obs::JsonValue* seconds = json.Find("seconds")) {
    request->total_s = Number(*seconds, "total");
    request->plan_s = Number(*seconds, "plan");
    request->stats_s = Number(*seconds, "stats");
    request->exec_s = Number(*seconds, "exec");
  }
}

/// One client connection: one request in flight at a time.
class Connection {
 public:
  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd_ >= 0) server::CloseFd(fd_);
  }

  Status Open(uint16_t port) {
    MONSOON_ASSIGN_OR_RETURN(fd_, server::ConnectTo("127.0.0.1", port));
    reader_ = std::make_unique<server::LineReader>(fd_);
    return Status::OK();
  }

  /// Sends one SQL line and reads its response line.
  Status RoundTrip(const std::string& sql, std::string* response) {
    MONSOON_RETURN_IF_ERROR(server::WriteAll(fd_, sql + "\n"));
    MONSOON_ASSIGN_OR_RETURN(bool got, reader_->ReadLine(response));
    if (!got) return Status::Unavailable("server closed the connection");
    return Status::OK();
  }

 private:
  int fd_ = -1;
  std::unique_ptr<server::LineReader> reader_;
};

/// Seeded open-loop schedule: Poisson arrivals at `rate` for `seconds`.
/// The queries follow a Zipf(kZipfSkew) over suite order, stratified: each
/// query appears its expected number of times (largest remainder) in a
/// seeded order. The latency percentiles sit between the latencies of
/// distinct queries, so a multinomial draw would move them with every
/// seed's sampling noise in the mix rather than with the system.
std::vector<Arrival> MakeSchedule(uint64_t seed, double rate, double seconds,
                                  int num_queries) {
  Pcg32 rng(seed);
  std::vector<Arrival> schedule;
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    schedule.push_back({t, 0});
  }
  const size_t n = schedule.size();
  std::vector<double> weight(static_cast<size_t>(num_queries));
  double sum = 0;
  for (int i = 0; i < num_queries; ++i) {
    weight[static_cast<size_t>(i)] = 1.0 / std::pow(i + 1, kZipfSkew);
    sum += weight[static_cast<size_t>(i)];
  }
  std::vector<size_t> count(weight.size());
  std::vector<std::pair<double, int>> remainder;
  size_t assigned = 0;
  for (size_t i = 0; i < weight.size(); ++i) {
    double expected = static_cast<double>(n) * weight[i] / sum;
    count[i] = static_cast<size_t>(expected);
    assigned += count[i];
    remainder.emplace_back(-(expected - static_cast<double>(count[i])), static_cast<int>(i));
  }
  std::sort(remainder.begin(), remainder.end());
  for (size_t k = 0; assigned < n; ++k, ++assigned) ++count[static_cast<size_t>(remainder[k].second)];
  std::vector<int> queries;
  for (size_t i = 0; i < count.size(); ++i) queries.insert(queries.end(), count[i], static_cast<int>(i));
  for (size_t i = queries.size(); i > 1; --i) {
    std::swap(queries[i - 1], queries[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  for (size_t i = 0; i < n; ++i) schedule[i].query = queries[i];
  return schedule;
}

class ServeBench {
 public:
  ServeBench(const Workload& workload, server::QueryServer* server,
             std::vector<std::unique_ptr<Connection>>* connections,
             Clock::time_point origin)
      : workload_(workload), server_(server), connections_(connections),
        origin_(origin) {}

  /// Runs `schedule` open-loop: each connection claims the next arrival
  /// once it is free, waits for its due time, sends it and reads the
  /// response. Latency counts from the due time, so a stall delays every
  /// later request's clock too. With `spans`, one recorder per connection,
  /// and request i gets span query id `id_base + i`.
  std::vector<Request> RunOpenLoop(const std::vector<Arrival>& schedule,
                                   std::vector<SpanRecorder>* spans, uint64_t id_base = 0) {
    std::vector<Request> requests(schedule.size());
    std::atomic<size_t> next{0};
    Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < connections_->size(); ++c) {
      threads.emplace_back([&, c] {
        Connection& conn = *(*connections_)[c];
        SpanRecorder* recorder = spans != nullptr ? &(*spans)[c] : nullptr;
        for (;;) {
          size_t i = next.fetch_add(1);
          if (i >= schedule.size()) break;
          Request& request = requests[i];
          request.query = schedule[i].query;
          Clock::time_point due =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(schedule[i].due_s));
          Clock::time_point claimed = Clock::now();
          std::this_thread::sleep_until(due);
          Clock::time_point sent = Clock::now();
          request.lag_s = std::chrono::duration<double>(sent - std::max(due, claimed)).count();
          int queued = server_->admission_stats().queued;
          int seen = queued_peak_.load();
          while (queued > seen && !queued_peak_.compare_exchange_weak(seen, queued)) {
          }
          std::string response;
          Status status = conn.RoundTrip(
              workload_.queries[static_cast<size_t>(request.query)].sql, &response);
          Clock::time_point received = Clock::now();
          if (status.ok()) ParseResponse(response, &request);
          request.due_s = Offset(due);
          request.send_s = Offset(sent);
          request.recv_s = Offset(received);
          if (recorder != nullptr) {
            // The request span runs on through the benchmark's own response
            // handling, which no child span covers (the unattributed row).
            const uint64_t id = id_base + i;
            int root = static_cast<int>(recorder->spans().size());
            recorder->Add("request", id, -1, due, Clock::now());
            recorder->Add("client.wait", id, root, due, sent);
            recorder->Add("server.roundtrip", id, root, sent, received);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return requests;
  }

  /// Closed-loop pass: every suite query once, spread over the
  /// connections. Returns the pass wall time.
  double ClosedLoopPass(std::vector<Request>* out) {
    std::vector<Arrival> all;
    for (size_t q = 0; q < workload_.queries.size(); ++q) {
      all.push_back({0, static_cast<int>(q)});
    }
    Clock::time_point start = Clock::now();
    *out = RunOpenLoop(all, nullptr);
    return SecondsSince(start);
  }

  int queued_peak() const { return queued_peak_.load(); }

 private:
  double Offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  const Workload& workload_;
  server::QueryServer* server_;
  std::vector<std::unique_ptr<Connection>>* connections_;
  Clock::time_point origin_;
  std::atomic<int> queued_peak_{0};
};

struct Phase {
  double p50_ms = 0, p95_ms = 0, p99_ms = 0;
  double drain_ms = 0;  // latest last response after its window's last due time
  uint64_t attempted = 0, missed = 0;
};

/// Latency percentiles over fixed-rate windows. p50 and p95 are the medians
/// of the per-window percentiles: host noise arrives in bursts of seconds,
/// and a burst then moves one window instead of the whole tail. p99 is
/// pooled over every window.
Phase Summarize(const std::vector<std::vector<Request>>& windows) {
  Phase phase;
  std::vector<double> pooled_ms, p50, p95;
  for (const std::vector<Request>& window : windows) {
    if (window.empty()) continue;
    std::vector<double> latency_ms;
    double last_due = 0, last_recv = 0;
    for (const Request& r : window) {
      ++phase.attempted;
      last_due = std::max(last_due, r.due_s);
      last_recv = std::max(last_recv, r.recv_s);
      // A failed or rejected request misses any latency limit.
      if (!r.ok) ++phase.missed;
      latency_ms.push_back(r.ok ? (r.recv_s - r.due_s) * 1e3
                                : std::numeric_limits<double>::infinity());
    }
    phase.drain_ms = std::max(phase.drain_ms, (last_recv - last_due) * 1e3);
    p50.push_back(Quantile(latency_ms, 0.50));
    p95.push_back(Quantile(latency_ms, 0.95));
    pooled_ms.insert(pooled_ms.end(), latency_ms.begin(), latency_ms.end());
  }
  phase.p50_ms = Median(p50);
  phase.p95_ms = Median(p95);
  phase.p99_ms = Quantile(pooled_ms, 0.99);
  return phase;
}

}  // namespace

Report RunServe(const Args& args) {
  Report report;
  PinConfig(kServeThreads);

  server::ServerOptions options;
  options.port = 0;
  options.max_sessions = kMaxSessions;
  options.share_state = kServeShareState;
  options.optimizer.prior = PriorKind::kSpikeAndSlab;
  options.optimizer.mcts.iterations = kMctsIterations;
  options.optimizer.seed = kOptimizerSeed;
  options.optimizer.work_budget = kUdfBudget;

  // Set-up: workload generation plus server start; the last server stays
  // up and is the one measured.
  std::vector<double> setup_seconds;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<server::QueryServer> server;
  auto setup = [&]() -> StatusOr<double> {
    if (server != nullptr) server->Shutdown();
    server.reset();
    workload.reset();
    Clock::time_point start = Clock::now();
    MONSOON_ASSIGN_OR_RETURN(Workload made,
                             MakeWorkload(args.workload, args.scale_factor));
    workload = std::make_unique<Workload>(std::move(made));
    server = std::make_unique<server::QueryServer>(workload->catalog.get(), options);
    MONSOON_RETURN_IF_ERROR(server->Start());
    return SecondsSince(start);
  };
  Status set_up = RepeatSetup(setup, kSetupRepeats, &setup_seconds);
  if (!set_up.ok()) {
    report.Fail("set-up failed: " + set_up.ToString());
    if (server != nullptr) server->Shutdown();
    return report;
  }
  // Later set-ups build a copy beside the measured server and drain it: one
  // after every window and ladder rung and a second window at the end, so
  // the set-up samples span the whole run.
  auto setup_copy = [&]() -> StatusOr<double> {
    Clock::time_point start = Clock::now();
    MONSOON_ASSIGN_OR_RETURN(Workload copy, MakeWorkload(args.workload, args.scale_factor));
    server::QueryServer copy_server(copy.catalog.get(), options);
    MONSOON_RETURN_IF_ERROR(copy_server.Start());
    double seconds = SecondsSince(start);
    copy_server.Shutdown();
    return seconds;
  };

  // Reference rows per suite query (and the fixed-plan executor time).
  const size_t num_queries = workload->queries.size();
  std::vector<Reference> references(num_queries);
  std::vector<double> fixed_plan_exec_s;
  for (size_t q = 0; q < num_queries; ++q) {
    references[q] = RunReference(*workload->catalog, workload->queries[q].spec, 0);
    if (!references[q].ok) {
      report.Fail(workload->queries[q].name + ": reference " +
                  references[q].strategy + " failed");
    }
    fixed_plan_exec_s.push_back(references[q].exec_seconds);
    if (args.corrupt_reference) ++references[q].rows;
  }

  const int connections_n = std::max(
      1, std::min<int>(kMaxConnections, static_cast<int>(std::thread::hardware_concurrency())));
  std::vector<std::unique_ptr<Connection>> connections;
  for (int c = 0; c < connections_n; ++c) {
    connections.push_back(std::make_unique<Connection>());
    Status opened = connections.back()->Open(server->port());
    if (!opened.ok()) {
      report.Fail("connect failed: " + opened.ToString());
      server->Shutdown();
      return report;
    }
  }
  Clock::time_point origin = Clock::now();
  ServeBench bench(*workload, server.get(), &connections, origin);

  uint64_t wrong_rows = 0, attempted = 0, missed = 0;
  auto check_rows = [&](const std::vector<Request>& requests) {
    for (const Request& r : requests) {
      ++attempted;
      if (!r.ok) ++missed;
      const Reference& ref = references[static_cast<size_t>(r.query)];
      if (r.ok && ref.ok && r.rows != ref.rows) {
        if (wrong_rows++ < 5) {
          report.Fail(StrFormat("%s: server returned %llu rows, reference %s has %llu",
                                workload->queries[static_cast<size_t>(r.query)].name.c_str(),
                                static_cast<unsigned long long>(r.rows),
                                ref.strategy.c_str(),
                                static_cast<unsigned long long>(ref.rows)));
        }
      }
    }
  };

  // Warm-up: closed-loop suite passes until the pass time is steady.
  double warmup_s = 0;
  std::vector<double> warm_pass_s;
  for (int i = 0; i < kMaxWarmupPasses; ++i) {
    std::vector<Request> requests;
    warm_pass_s.push_back(bench.ClosedLoopPass(&requests));
    warmup_s += warm_pass_s.back();
    check_rows(requests);
    for (const Request& r : requests) {
      if (!r.ok) report.Fail("warm-up request failed: " + r.code);
    }
    size_t n = warm_pass_s.size();
    if (static_cast<int>(n) >= kMinWarmupPasses &&
        std::abs(warm_pass_s[n - 1] - warm_pass_s[n - 2]) <=
            kSteadyTolerance * warm_pass_s[n - 2]) {
      break;
    }
  }

  attempted = missed = 0;  // warm-up requests are not measured operations

  // Measurement: fixed-rate windows (the latency metrics), each followed by
  // closed-loop suite passes (the throughput) and one set-up, so that every
  // figure samples the whole run. A traced run records spans in every other
  // window and runs no ladder; the tracing overhead is the p50 difference
  // between its traced and untraced windows.
  const double window_seconds =
      args.seconds * (args.trace ? 1 - kClosedLoopShare : kFixedShare) / kLatencyWindows;
  const double closed_seconds = args.seconds * kClosedLoopShare / kLatencyWindows;
  std::vector<SpanRecorder> recorders;
  for (int c = 0; c < connections_n; ++c) recorders.emplace_back(true, origin);
  std::vector<std::vector<Request>> untraced_windows, traced_windows;
  std::vector<double> closed_pass_s, closed_pass_objects;
  obs::MetricsSnapshot delta;  // over the fixed-rate windows only
  for (int w = 0; w < kLatencyWindows; ++w) {
    const bool traced = args.trace && w % 2 == 1;
    obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
    std::vector<Request> window = bench.RunOpenLoop(
        MakeSchedule(args.seed * kLatencyWindows + static_cast<uint64_t>(w), kFixedRate,
                     window_seconds, static_cast<int>(num_queries)),
        traced ? &recorders : nullptr, static_cast<uint64_t>(w) * kWindowIdStride);
    MergeDelta(obs::SnapshotDelta(before, obs::Registry::Global().Snapshot()), &delta);
    check_rows(window);
    (traced ? traced_windows : untraced_windows).push_back(std::move(window));
    Clock::time_point closed_start = Clock::now();
    do {
      std::vector<Request> pass;
      closed_pass_s.push_back(bench.ClosedLoopPass(&pass));
      check_rows(pass);
      double objects = 0;
      for (const Request& r : pass) objects += static_cast<double>(r.objects);
      closed_pass_objects.push_back(objects);
    } while (SecondsSince(closed_start) < closed_seconds);
    StatusOr<double> seconds = setup_copy();
    if (!seconds.ok()) report.Fail("set-up failed: " + seconds.status().ToString());
    if (seconds.ok()) setup_seconds.push_back(seconds.value());
  }
  const uint64_t measured_attempted = attempted, measured_missed = missed;
  Phase fixed_phase = Summarize(untraced_windows);

  // Ladder: fixed rates in increasing order until one misses the p99 limit
  // or cannot drain its queue within the limit (a growing backlog).
  double max_qps_at_slo = 0;
  int rungs_run = 0;
  if (!args.trace) {
    const double rung_seconds =
        args.seconds * (1 - kFixedShare - kClosedLoopShare) / kLadderRungsBudget;
    double last_pass_rate = 0, last_pass_p99 = 0;
    for (double rate : kLadder) {
      std::vector<Request> rung = bench.RunOpenLoop(
          MakeSchedule(args.seed * 31 + static_cast<uint64_t>(rate), rate,
                       rung_seconds, static_cast<int>(num_queries)),
          nullptr);
      ++rungs_run;
      check_rows(rung);
      StatusOr<double> seconds = setup_copy();
      if (!seconds.ok()) report.Fail("set-up failed: " + seconds.status().ToString());
      if (seconds.ok()) setup_seconds.push_back(seconds.value());
      Phase phase = Summarize({rung});
      bool meets = phase.missed == 0 && phase.p99_ms <= kSloP99Ms &&
                   phase.drain_ms <= kSloP99Ms;
      if (!meets) {
        // Interpolate between the last passing and this failing rung on
        // p99, so the figure moves continuously with the latency curve.
        if (last_pass_rate > 0 && std::isfinite(phase.p99_ms) &&
            phase.p99_ms > last_pass_p99) {
          double frac = (kSloP99Ms - last_pass_p99) / (phase.p99_ms - last_pass_p99);
          max_qps_at_slo = last_pass_rate + (rate - last_pass_rate) *
                                                std::clamp(frac, 0.0, 1.0);
        } else {
          max_qps_at_slo = last_pass_rate;
        }
        break;
      }
      last_pass_rate = rate;
      last_pass_p99 = phase.p99_ms;
      max_qps_at_slo = rate;
    }
  }

  // Per-layer figures over every fixed-rate request. Inside the round trip
  // the response's own timers split the engine time; the rest of the round
  // trip is admission, parsing, protocol and socket (server.overhead_*).
  std::vector<Request> all, traced_requests;
  for (const std::vector<Request>& window : untraced_windows) {
    all.insert(all.end(), window.begin(), window.end());
  }
  for (const std::vector<Request>& window : traced_windows) {
    all.insert(all.end(), window.begin(), window.end());
    traced_requests.insert(traced_requests.end(), window.begin(), window.end());
  }
  LayerSamples layer;
  double work_units = 0;
  for (const Request& r : all) {
    layer.lag_ms.push_back(r.lag_s * 1e3);
    if (!r.ok) continue;
    layer.AddEngine(r.total_s, r.plan_s, r.stats_s, r.exec_s,
                    r.recv_s - r.send_s - r.total_s);
    layer.execute_rounds += r.execute_rounds;
    layer.stats_collections += r.stats_collections;
    layer.cache_hits += r.cache_hits;
    layer.cache_misses += r.cache_misses;
    work_units += static_cast<double>(r.work_units);
    ++layer.queries;
  }
  // Work per suite-sized batch of fixed-rate requests (one "pass").
  const double per_pass = static_cast<double>(num_queries) / std::max(1.0, layer.queries);
  layer.work_units_m = work_units * per_pass / 1e6;
  layer.fixed_plan_exec_s = fixed_plan_exec_s;
  layer.warmup_s = warmup_s;
  layer.delta = delta;

  // sql.parse_us: the benchmark parses each suite text itself (the server
  // parses the same text on its side).
  SqlParser parser(workload->catalog.get());
  for (const BenchQuery& query : workload->queries) {
    Clock::time_point start = Clock::now();
    StatusOr<QuerySpec> spec = parser.Parse(query.sql);
    layer.parse_us.push_back(SecondsSince(start) * 1e6);
    if (!spec.ok()) report.Fail(query.name + ": parse failed");
  }

  // Planner probes (traced run only), at the server's one thread per query.
  SpanRecorder probes(args.trace, origin);
  if (args.trace) layer.probe = ProbePlanner(*workload, options.optimizer, &probes);

  server::AdmissionStats admission = server->admission_stats();
  connections.clear();
  server->Shutdown();
  if (server->pool_pending() != 0) report.Fail("server leaked pool tasks");

  // The second set-up window (see kSetupWindowSeconds).
  set_up = RepeatSetup(setup_copy, kSetupRepeats, &setup_seconds);
  if (!set_up.ok()) report.Fail("set-up failed: " + set_up.ToString());

  // Throughput and objects per pass come from the closed-loop passes:
  // the suite over the median pass time, and the median pass's objects.
  report.attempted = measured_attempted;
  report.failed = measured_missed;
  if (measured_missed > 0) {
    report.Fail(StrFormat("%llu measured requests failed or were rejected",
                          static_cast<unsigned long long>(measured_missed)));
  }

  AddEndToEnd(fixed_phase.p50_ms, fixed_phase.p95_ms,
              Ratio(static_cast<double>(num_queries), Median(closed_pass_s)),
              Median(closed_pass_objects) / 1e6, setup_seconds, &report);
  constexpr MetricKind I = MetricKind::kInfo;
  report.Add("latency_p99_ms", fixed_phase.p99_ms, "ms", I);
  report.Add("max_qps_at_slo", max_qps_at_slo, "1/s", I);
  report.Add("ladder_rungs_run", rungs_run, "count", I);
  report.Add("failed_frac", Ratio(measured_missed, measured_attempted), "ratio", I);
  report.Add("failed_frac.base", measured_attempted, "count", I);
  report.Add("admission.rejected", admission.rejected, "count", I);
  report.Add("bench.warmup_passes", static_cast<double>(warm_pass_s.size()), "count", I);
  report.Add("connections", connections_n, "count", I);
  report.Add("closed_loop_passes", static_cast<double>(closed_pass_s.size()), "count", I);
  layer.queued_peak = bench.queued_peak();

  if (args.trace) {
    Phase untraced_phase = Summarize(untraced_windows);
    Phase traced_phase = Summarize(traced_windows);
    layer.overhead_frac =
        Ratio(traced_phase.p50_ms - untraced_phase.p50_ms, untraced_phase.p50_ms);
    std::vector<const SpanRecorder*> all_recorders;
    for (const SpanRecorder& r : recorders) all_recorders.push_back(&r);
    std::map<std::string, double> self = FoldSelfTimes(all_recorders);
    double engine = 0, plan = 0, sigma = 0, exec = 0, roundtrip = 0, request = 0;
    for (const SpanRecorder& recorder : recorders) {
      for (const Span& span : recorder.spans()) {
        if (span.name == "request") request += span.end_s - span.start_s;
      }
    }
    for (const Request& r : traced_requests) {
      roundtrip += r.recv_s - r.send_s;
      if (!r.ok) continue;
      engine += r.total_s;
      plan += r.plan_s;
      sigma += r.stats_s;
      exec += r.exec_s;
    }
    report.layers = {
        {"client.wait (due -> send)", self["client.wait"]},
        {"mcts (response seconds.plan)", plan},
        {"sigma (response seconds.stats)", sigma},
        {"exec (response seconds.exec)", exec},
        {"monsoon.loop (total - plan - sigma - exec)", engine - plan - sigma - exec},
        {"server.overhead (roundtrip - engine)", roundtrip - engine},
        {"unattributed (no span)", self["request"]},
        {"= traced request spans, summed", request},
        {"probe: mdp.legal_actions", FoldSelfTimes({&probes})["mdp.legal_actions"]},
        {"probe: mcts.search", FoldSelfTimes({&probes})["mcts.search"]},
    };
    layer.unattributed_frac = Ratio(self["request"], request);
    all_recorders.push_back(&probes);
    Status written = WriteSpans(args.out_dir + "/spans_" + args.workload + ".json",
                                all_recorders);
    if (!written.ok()) report.Fail(written.ToString());
  }
  AddLayerMetrics(layer, &report);
  return report;
}

}  // namespace monsoon::perfbench
