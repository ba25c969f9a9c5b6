// The one-shot workloads, imdb_exec and udf_plan: a closed loop of one
// client running every suite query through a fresh MonsoonOptimizer, with
// nothing shared between queries.

#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench.h"
#include "common/string_util.h"
#include "monsoon/monsoon_optimizer.h"
#include "sql/parser.h"

namespace monsoon::perfbench {

namespace {

constexpr int kSetupRepeats = 3;
constexpr int kMinWarmupPasses = 2;
constexpr int kMaxWarmupPasses = 8;
constexpr double kSteadyTolerance = 0.10;  // pass-to-pass wall-time change

/// One query's outcome, kept per pass.
struct QueryRun {
  StatusCode code = StatusCode::kOk;
  uint64_t rows = 0;
  uint64_t objects = 0;
  uint64_t work_units = 0;
  double run_s = 0;    // wall time of MonsoonOptimizer::Run
  double parse_s = 0;  // wall time of SqlParser::Parse
  double gap_s = 0;    // end of the previous query's Run to this one's start
  double total_s = 0, plan_s = 0, stats_s = 0, exec_s = 0;
  int execute_rounds = 0;
  int stats_collections = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t content_hash = 0;
  bool hashed = false;
};

struct Pass {
  double wall_s = 0;
  bool traced = false;
  std::vector<QueryRun> queries;
  obs::MetricsSnapshot delta;
};

class OneShotBench {
 public:
  OneShotBench(const Args& args, const Workload& workload)
      : args_(args), workload_(workload), parser_(workload.catalog.get()) {
    options_.prior = PriorKind::kSpikeAndSlab;
    options_.mcts.iterations = kMctsIterations;
    options_.seed = kOptimizerSeed;
    options_.work_budget =
        args.workload == "imdb_exec" ? kImdbBudget : kUdfBudget;
  }

  /// Runs every suite query once. With `hash_results` the result table of
  /// every completed query is content-hashed (outside the timed calls).
  Pass RunPass(SpanRecorder* spans, bool hash_results, uint64_t pass_index) {
    Pass pass;
    pass.traced = spans->enabled();
    obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
    Clock::time_point pass_start = Clock::now();
    int pass_span = spans->Begin("pass", pass_index);
    Clock::time_point previous_end = pass_start;
    pass.queries.resize(workload_.queries.size());
    for (size_t q : PassOrder(args_.seed, pass_index, workload_.queries.size())) {
      const BenchQuery& query = workload_.queries[q];
      const uint64_t query_id = pass_index * 1000 + q;
      QueryRun run;
      int query_span = spans->Begin("query", query_id);
      Clock::time_point start = Clock::now();
      run.gap_s = std::chrono::duration<double>(start - previous_end).count();
      int parse_span = spans->Begin("sql.parse", query_id);
      StatusOr<QuerySpec> spec = parser_.Parse(query.sql);
      spans->End(parse_span);
      Clock::time_point parsed = Clock::now();
      run.parse_s = std::chrono::duration<double>(parsed - start).count();
      RunResult result;
      int run_span = spans->Begin("monsoon.run", query_id);
      if (spec.ok()) {
        MonsoonOptimizer monsoon(workload_.catalog.get(), options_);
        result = monsoon.Run(spec.value());
      } else {
        result.status = spec.status();
      }
      spans->End(run_span);
      previous_end = Clock::now();
      run.run_s = std::chrono::duration<double>(previous_end - parsed).count();
      spans->End(query_span);
      run.code = result.status.code();
      run.rows = result.result_rows;
      run.objects = result.objects_processed;
      run.work_units = result.work_units;
      run.total_s = result.total_seconds;
      run.plan_s = result.plan_seconds;
      run.stats_s = result.stats_seconds;
      run.exec_s = result.exec_seconds;
      run.execute_rounds = result.execute_rounds;
      run.stats_collections = result.stats_collections;
      run.cache_hits = result.udf_cache_hits;
      run.cache_misses = result.udf_cache_misses;
      if (hash_results && result.ok() && result.result_table != nullptr) {
        StatusOr<uint64_t> hash = NormalizedContentHash(*result.result_table);
        run.hashed = hash.ok();
        run.content_hash = hash.ok() ? hash.value() : 0;
        // Hashing is gate work, not query work: move the pass clock past it.
        Clock::time_point hashed_at = Clock::now();
        pass_start += hashed_at - previous_end;
        previous_end = hashed_at;
      }
      pass.queries[q] = run;
    }
    spans->End(pass_span);
    pass.wall_s = SecondsSince(pass_start);
    pass.delta = obs::SnapshotDelta(before, obs::Registry::Global().Snapshot());
    return pass;
  }

  const MonsoonOptimizer::Options& options() const { return options_; }


 private:
  const Args& args_;
  const Workload& workload_;
  SqlParser parser_;
  MonsoonOptimizer::Options options_;
};

bool IsTimeout(StatusCode code) {
  return code == StatusCode::kResourceExhausted ||
         code == StatusCode::kDeadlineExceeded;
}

}  // namespace

Report RunOneShot(const Args& args) {
  Report report;
  PinConfig(kOneShotThreads);

  // Set-up: workload and catalog generation. The copy made last is the one
  // measured.
  std::vector<double> setup_seconds;
  StatusOr<Workload> workload = Status::Internal("no set-up ran");
  auto setup = [&]() -> StatusOr<double> {
    workload = Status::Internal("released");  // free the previous copy first
    Clock::time_point start = Clock::now();
    workload = MakeWorkload(args.workload, args.scale_factor);
    if (!workload.ok()) return workload.status();
    return SecondsSince(start);
  };
  Status set_up = RepeatSetup(setup, kSetupRepeats, &setup_seconds);
  if (!set_up.ok()) {
    report.Fail("set-up failed: " + set_up.ToString());
    return report;
  }
  OneShotBench bench(args, workload.value());
  const std::vector<BenchQuery>& queries = workload->queries;
  Clock::time_point origin = Clock::now();
  SpanRecorder untraced(false, origin);
  SpanRecorder traced(args.trace, origin);

  // Warm-up: untimed passes until the pass time is steady. The first one
  // content-hashes its results for the reference comparison; every later
  // pass, timed ones included, must repeat its outcome, rows and objects.
  std::vector<Pass> warmup;
  double warmup_s = 0;
  for (int i = 0; i < kMaxWarmupPasses && (i < kMinWarmupPasses || warmup_s < args.seconds / 2);
       ++i) {
    warmup.push_back(bench.RunPass(&untraced, /*hash_results=*/i == 0, 100 + i));
    warmup_s += warmup.back().wall_s;
    if (static_cast<int>(warmup.size()) >= kMinWarmupPasses) {
      double prev = warmup[warmup.size() - 2].wall_s;
      double last = warmup.back().wall_s;
      if (std::abs(last - prev) <= kSteadyTolerance * prev) break;
    }
  }
  const Pass& expected = warmup.front();

  // Correctness gate against the reference baseline, on every query the
  // warm-up completed. The reference runs without a work budget; a query it
  // cannot finish fails the gate.
  std::vector<double> fixed_plan_exec_s;
  for (size_t q = 0; q < queries.size(); ++q) {
    const QueryRun& run = expected.queries[q];
    if (run.code != StatusCode::kOk) continue;
    Reference ref = RunReference(*workload->catalog, queries[q].spec, 0);
    if (!ref.ok) {
      report.Fail(queries[q].name + ": reference " + ref.strategy + " failed");
      continue;
    }
    fixed_plan_exec_s.push_back(ref.exec_seconds);
    uint64_t ref_rows = ref.rows + (args.corrupt_reference ? 1 : 0);
    if (run.rows != ref_rows) {
      report.Fail(StrFormat("%s: %llu rows, reference %s has %llu",
                            queries[q].name.c_str(),
                            static_cast<unsigned long long>(run.rows),
                            ref.strategy.c_str(),
                            static_cast<unsigned long long>(ref_rows)));
    } else if (ref.hashed && run.hashed && ref.content_hash != run.content_hash) {
      report.Fail(queries[q].name + ": result content differs from reference " +
                  ref.strategy);
    }
  }

  // Timed passes: whole passes until the run length is used up. A traced
  // run alternates untraced and traced passes so the tracing overhead is
  // the difference between the two within one process. One more set-up
  // follows every pass (outside the run-length clock), so the set-up
  // samples span the whole run.
  auto setup_copy = [&]() -> StatusOr<double> {
    Clock::time_point start = Clock::now();
    StatusOr<Workload> copy = MakeWorkload(args.workload, args.scale_factor);
    if (!copy.ok()) return copy.status();
    return SecondsSince(start);
  };
  std::vector<Pass> timed;
  Clock::time_point timed_start = Clock::now();
  double setup_in_timed_s = 0;
  for (int p = 0; p < 2 || SecondsSince(timed_start) - setup_in_timed_s < args.seconds ||
                  (args.trace && p % 2 != 0);
       ++p) {
    bool trace_this = args.trace && p % 2 == 1;
    timed.push_back(bench.RunPass(trace_this ? &traced : &untraced,
                                  /*hash_results=*/false, p + 1));
    std::cerr << StrFormat("pass %d%s: %.4f s\n", p + 1, trace_this ? " (traced)" : "",
                           timed.back().wall_s);
    StatusOr<double> seconds = setup_copy();
    if (!seconds.ok()) {
      report.Fail("set-up failed: " + seconds.status().ToString());
      break;
    }
    setup_seconds.push_back(seconds.value());
    setup_in_timed_s += seconds.value();
  }

  // Determinism: every timed pass repeats the warm-up's outcome, rows and
  // objects query by query.
  for (size_t p = 0; p < timed.size(); ++p) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const QueryRun& got = timed[p].queries[q];
      const QueryRun& want = expected.queries[q];
      if (got.code != want.code || got.rows != want.rows ||
          got.objects != want.objects) {
        report.Fail(StrFormat("%s: pass %zu gave %s/%llu rows/%llu objects, "
                              "warm-up %s/%llu/%llu",
                              queries[q].name.c_str(), p + 1,
                              StatusCodeToString(got.code),
                              static_cast<unsigned long long>(got.rows),
                              static_cast<unsigned long long>(got.objects),
                              StatusCodeToString(want.code),
                              static_cast<unsigned long long>(want.rows),
                              static_cast<unsigned long long>(want.objects)));
      }
    }
  }

  // The second set-up window (see kSetupWindowSeconds).
  Status set_up_again = RepeatSetup(setup_copy, kSetupRepeats, &setup_seconds);
  if (!set_up_again.ok()) report.Fail("set-up failed: " + set_up_again.ToString());

  // --- end-to-end metrics (untraced passes) ---
  // Run-to-run noise on a shared machine comes in bursts of seconds, so
  // every timing is a median: each query's latency is its median over the
  // passes, the percentiles are over the suite, and throughput is the
  // suite over the median pass.
  std::vector<std::vector<double>> per_query_ms(queries.size());
  uint64_t untraced_queries = 0, non_ok = 0, errors = 0, timeouts = 0;
  std::vector<double> untraced_pass_s, traced_pass_s;
  for (const Pass& pass : timed) {
    (pass.traced ? traced_pass_s : untraced_pass_s).push_back(pass.wall_s);
    if (pass.traced) continue;
    for (size_t q = 0; q < queries.size(); ++q) {
      const QueryRun& run = pass.queries[q];
      per_query_ms[q].push_back(run.run_s * 1e3);
      ++untraced_queries;
      if (run.code != StatusCode::kOk) ++non_ok;
      if (IsTimeout(run.code)) {
        ++timeouts;
      } else if (run.code != StatusCode::kOk) {
        ++errors;
      }
    }
  }
  std::vector<double> latency_ms;
  for (const std::vector<double>& samples : per_query_ms) {
    latency_ms.push_back(Median(samples));
  }
  double objects_per_pass = 0;
  for (const QueryRun& run : expected.queries) objects_per_pass += run.objects;

  report.attempted = untraced_queries;
  // Budget timeouts are the suite's designed, deterministic outcome (the
  // paper's "TO"); they count in failed_frac, not as failed operations.
  report.failed = errors;
  if (errors > 0) report.Fail(StrFormat("%llu queries failed with an error",
                                        static_cast<unsigned long long>(errors)));

  AddEndToEnd(Quantile(latency_ms, 0.50), Quantile(latency_ms, 0.95),
              Ratio(static_cast<double>(queries.size()), Median(untraced_pass_s)),
              objects_per_pass / 1e6, setup_seconds, &report);
  constexpr MetricKind I = MetricKind::kInfo;
  report.Add("failed_frac", Ratio(non_ok, untraced_queries), "ratio", I);
  report.Add("failed_frac.base", untraced_queries, "count", I);
  report.Add("timeouts_per_pass", static_cast<double>(timeouts) /
                 std::max<size_t>(1, untraced_pass_s.size()),
             "count", I);
  report.Add("timed_passes", static_cast<double>(timed.size()), "count", I);
  for (size_t i = 0; i < warmup.size(); ++i) {
    report.Add(StrFormat("bench.warmup_pass%zu_s", i + 1), warmup[i].wall_s, "s", I);
  }

  // --- per-layer metrics (all timed passes; RunResult fields and
  // registry deltas). No server on this workload: the server.* metrics are
  // taken at the Run boundary (engine = RunResult::total_seconds, overhead
  // = the rest of the Run call), and nothing queues at admission. The
  // generator's lateness is the closed loop's own gap between one query's
  // end and the next one's start. ---
  LayerSamples layer;
  double work_units = 0;
  for (const Pass& pass : timed) {
    for (const QueryRun& run : pass.queries) {
      layer.AddEngine(run.total_s, run.plan_s, run.stats_s, run.exec_s,
                      run.run_s - run.total_s);
      layer.parse_us.push_back(run.parse_s * 1e6);
      layer.lag_ms.push_back(run.gap_s * 1e3);
      layer.execute_rounds += run.execute_rounds;
      layer.stats_collections += run.stats_collections;
      layer.cache_hits += static_cast<double>(run.cache_hits);
      layer.cache_misses += static_cast<double>(run.cache_misses);
      work_units += static_cast<double>(run.work_units);
      ++layer.queries;
    }
    MergeDelta(pass.delta, &layer.delta);
  }
  layer.work_units_m = work_units / static_cast<double>(timed.size()) / 1e6;
  layer.fixed_plan_exec_s = fixed_plan_exec_s;
  layer.warmup_s = warmup_s;

  if (args.trace) {
    layer.probe = ProbePlanner(workload.value(), bench.options(), &traced);
    layer.overhead_frac = Ratio(Median(traced_pass_s) - Median(untraced_pass_s),
                                Median(untraced_pass_s));
    // Fold the benchmark's spans into self time per layer. Inside
    // monsoon.run the program's own timers (RunResult) split the call into
    // MCTS, Σ, execution and the decision loop; "run.outside" is the Run
    // call beyond RunResult::total_seconds.
    std::map<std::string, double> self = FoldSelfTimes({&traced});
    double traced_wall = 0, plan = 0, sigma = 0, exec = 0, total = 0;
    for (const Pass& pass : timed) {
      if (!pass.traced) continue;
      traced_wall += pass.wall_s;
      for (const QueryRun& q : pass.queries) {
        plan += q.plan_s;
        sigma += q.stats_s;
        exec += q.exec_s;
        total += q.total_s;
      }
    }
    double unattributed = self["pass"] + self["query"];
    report.layers = {
        {"sql.parse", self["sql.parse"]},
        {"mcts (RunResult.plan_seconds)", plan},
        {"sigma (RunResult.stats_seconds)", sigma},
        {"exec (RunResult.exec_seconds)", exec},
        {"monsoon.loop (total - plan - sigma - exec)", total - plan - sigma - exec},
        {"run.outside (Run wall - total_seconds)", self["monsoon.run"] - total},
        {"unattributed (no span)", unattributed},
        {"= traced pass wall", traced_wall},
        {"  untraced pass wall (median x traced passes)",
         Median(untraced_pass_s) * static_cast<double>(traced_pass_s.size())},
        {"probe: mdp.legal_actions", self["mdp.legal_actions"]},
        {"probe: mcts.search", self["mcts.search"]},
    };
    layer.unattributed_frac = Ratio(unattributed, traced_wall);
    Status written = WriteSpans(args.out_dir + "/spans_" + args.workload + ".json",
                                {&traced});
    if (!written.ok()) report.Fail(written.ToString());
  }
  AddLayerMetrics(layer, &report);
  return report;
}

}  // namespace monsoon::perfbench
