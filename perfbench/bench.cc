#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>

#include "baselines/baselines.h"
#include "common/random.h"
#include "common/string_util.h"
#include "exec/udf_cache.h"
#include "fault/injector.h"
#include "mcts/root_parallel.h"
#include "obs/json.h"
#include "obs/timeseries.h"
#include "parallel/runtime.h"
#include "priors/prior.h"
#include "shard/shard.h"
#include "workloads/imdb.h"
#include "workloads/udfbench.h"

extern char** environ;

namespace monsoon::perfbench {

void PinConfig(int threads) {
  parallel::Config config;
  config.num_threads = threads;
  config.morsel_size = kMorselSize;
  config.batch_size = kBatchSize;
  config.deterministic = false;
  config.mcts_workers = 0;  // one root-parallel searcher per thread
  parallel::SetDefaultConfig(config);
  shard::SetDefaultShardCount(kShards);
  SetDefaultUdfCacheBytes(kUdfCacheBytes);
  fault::Clear();
}

Status RefuseEnvironmentKnobs() {
  std::string stray;
  for (char** env = environ; env != nullptr && *env != nullptr; ++env) {
    std::string entry(*env);
    if (entry.rfind("MONSOON_", 0) == 0) {
      stray += (stray.empty() ? "" : ", ") + entry.substr(0, entry.find('='));
    }
  }
  if (stray.empty()) return Status::OK();
  return Status::InvalidArgument(
      "refusing to run with MONSOON_* environment knobs set (" + stray +
      "); the benchmark pins every setting itself");
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

uint64_t CounterDelta(const obs::MetricsSnapshot& delta, const std::string& name) {
  auto it = delta.counters.find(name);
  return it == delta.counters.end() ? 0 : it->second;
}

void MergeDelta(const obs::MetricsSnapshot& delta, obs::MetricsSnapshot* total) {
  for (const auto& [name, value] : delta.counters) total->counters[name] += value;
  for (const auto& [name, histogram] : delta.histograms) {
    obs::HistogramSnapshot& into = total->histograms[name];
    if (into.buckets.empty()) into.buckets.assign(obs::kHistogramBuckets, 0);
    into.Merge(histogram);
  }
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

StatusOr<uint64_t> NormalizedContentHash(const Table& table) {
  const Schema& schema = table.schema();
  std::vector<size_t> order(schema.num_columns());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return schema.column(a).name < schema.column(b).name;
  });
  std::vector<ColumnDef> columns;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i > 0 && schema.column(order[i]).name == schema.column(order[i - 1]).name) {
      return Status::InvalidArgument("repeated column " + schema.column(order[i]).name);
    }
    columns.push_back(schema.column(order[i]));
  }
  // Normalise in chunks so a large result is never copied whole.
  constexpr size_t kChunk = 4096;
  Table chunk{Schema(columns)};
  uint64_t sum = 0;
  std::vector<Value> row(order.size());
  for (size_t begin = 0; begin < table.num_rows(); begin += kChunk) {
    size_t end = std::min(table.num_rows(), begin + kChunk);
    chunk.ClearRows();
    for (size_t r = begin; r < end; ++r) {
      for (size_t c = 0; c < order.size(); ++c) row[c] = table.ValueAt(order[c], r);
      MONSOON_RETURN_IF_ERROR(chunk.AppendRow(row));
    }
    // A wrapping sum of per-row hashes ignores row order but not
    // multiplicity.
    for (size_t r = 0; r < chunk.num_rows(); ++r) sum += shard::RowContentHash(chunk, r);
  }
  return sum ^ (table.num_rows() * 0x9e3779b97f4a7c15ull);
}

Reference RunReference(const Catalog& catalog, const QuerySpec& spec,
                       uint64_t work_budget) {
  Reference ref;
  RunResult result = MakeFullStatsStrategy()->Run(catalog, spec, work_budget);
  ref.strategy = "full-stats";
  if (!result.ok() && !result.timed_out()) {
    result = MakeDefaultsStrategy()->Run(catalog, spec, work_budget);
    ref.strategy = "defaults";
  }
  if (!result.ok()) return ref;
  ref.ok = true;
  ref.rows = result.result_rows;
  ref.exec_seconds = result.exec_seconds;
  if (result.result_table != nullptr) {
    StatusOr<uint64_t> hash = NormalizedContentHash(*result.result_table);
    if (hash.ok()) {
      ref.content_hash = hash.value();
      ref.hashed = true;
    }
  }
  return ref;
}

PlannerProbe ProbePlanner(const Workload& workload, const MonsoonOptimizer::Options& options,
                          SpanRecorder* spans) {
  constexpr int kLegalActionsRepeats = 50;
  PlannerProbe probe;
  std::unique_ptr<Prior> prior = MakePrior(options.prior);
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const QuerySpec& spec = workload.queries[q].spec;
    QueryMdp mdp(spec, prior.get(), options.mdp);
    std::map<ExprSig, double> base_counts;
    for (int i = 0; i < spec.num_relations(); ++i) {
      StatusOr<uint64_t> rows = workload.catalog->RowCount(spec.relation(i).table_name);
      base_counts[ExprSig::Of(RelSet::Single(i), 0)] =
          static_cast<double>(rows.ok() ? rows.value() : 0);
    }
    MdpState state = mdp.InitialState(StatsStore(), base_counts);
    const uint64_t probe_id = 900000 + q;
    int legal_span = spans->Begin("mdp.legal_actions", probe_id);
    Clock::time_point start = Clock::now();
    size_t legal = 0;
    for (int r = 0; r < kLegalActionsRepeats; ++r) legal += mdp.LegalActions(state).size();
    probe.legal_actions_us.push_back(SecondsSince(start) * 1e6 / kLegalActionsRepeats);
    spans->End(legal_span);
    if (legal / kLegalActionsRepeats < 2) continue;  // Run does not search here
    RootParallelMcts::Options rp;
    rp.search = options.mcts;
    rp.search.seed = options.seed;
    rp.workers = parallel::EffectiveMctsWorkers();
    RootParallelMcts mcts(&mdp, rp, parallel::SharedPool());
    int search_span = spans->Begin("mcts.search", probe_id);
    start = Clock::now();
    StatusOr<MdpAction> action = mcts.SearchBestAction(state);
    double seconds = SecondsSince(start);
    spans->End(search_span);
    if (!action.ok() || mcts.last_info().iterations_run == 0) continue;
    probe.search_us_per_iter.push_back(seconds * 1e6 / mcts.last_info().iterations_run);
    probe.tree_nodes.push_back(static_cast<double>(mcts.last_info().tree_nodes));
  }
  return probe;
}

int SpanRecorder::Begin(const std::string& name, uint64_t query_id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.query_id = query_id;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Offset(Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::End(int handle) {
  if (handle < 0) return;
  spans_[static_cast<size_t>(handle)].end_s = Offset(Clock::now());
  if (!open_.empty() && open_.back() == handle) open_.pop_back();
}

void SpanRecorder::Add(const std::string& name, uint64_t query_id, int parent,
                       Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.query_id = query_id;
  span.parent = parent;
  span.start_s = Offset(start);
  span.end_s = Offset(end);
  spans_.push_back(std::move(span));
}

std::map<std::string, double> FoldSelfTimes(
    const std::vector<const SpanRecorder*>& recorders) {
  std::map<std::string, double> self;
  for (const SpanRecorder* recorder : recorders) {
    const std::vector<Span>& spans = recorder->spans();
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        covered[static_cast<size_t>(span.parent)] += span.end_s - span.start_s;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name] += spans[i].end_s - spans[i].start_s - covered[i];
    }
  }
  return self;
}

Status WriteSpans(const std::string& path,
                  const std::vector<const SpanRecorder*>& recorders) {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  obs::JsonWriter json(out);
  json.BeginArray();
  for (size_t r = 0; r < recorders.size(); ++r) {
    const std::vector<Span>& spans = recorders[r]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      json.BeginObject();
      json.KV("recorder", static_cast<uint64_t>(r));
      json.KV("index", static_cast<uint64_t>(i));
      json.KV("name", spans[i].name);
      json.KV("query", spans[i].query_id);
      json.KV("parent", static_cast<int64_t>(spans[i].parent));
      json.KV("start_s", spans[i].start_s);
      json.KV("end_s", spans[i].end_s);
      json.EndObject();
    }
  }
  json.EndArray();
  out << "\n";
  return out.good() ? Status::OK() : Status::Internal("short write to " + path);
}

namespace {

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kEndToEnd:
      return "end_to_end";
    case MetricKind::kPerLayer:
      return "per_layer";
    case MetricKind::kInfo:
      return "info";
  }
  return "info";
}

}  // namespace

void AddEndToEnd(double p50_ms, double p95_ms, double qps, double objects_m,
                 const std::vector<double>& setup_seconds, Report* report) {
  constexpr MetricKind E = MetricKind::kEndToEnd;
  report->Add("latency_p50_ms", p50_ms, "ms", E);
  report->Add("latency_p95_ms", p95_ms, "ms", E);
  report->Add("throughput_qps", qps, "1/s", E);
  report->Add("objects_m", objects_m, "Mobj", E);
  report->Add("setup_s", Quantile(setup_seconds, 0.0), "s", E);  // the minimum
  report->Add("peak_rss_mb", PeakRssMb(), "MB", E);
}

void AddLayerMetrics(const LayerSamples& s, Report* report) {
  constexpr MetricKind L = MetricKind::kPerLayer;
  const double n = std::max(1.0, s.queries);
  auto counter = [&](const char* name) {
    return static_cast<double>(CounterDelta(s.delta, name));
  };
  auto histogram = s.delta.histograms.find("pool.queue_us");
  report->Add("sql.parse_us", Mean(s.parse_us), "us", L);
  report->Add("mcts.plan_ms", Mean(s.plan_ms), "ms", L);
  report->Add("mcts.search_us_per_iter", Mean(s.probe.search_us_per_iter), "us", L);
  report->Add("mcts.tree_nodes", Mean(s.probe.tree_nodes), "count", L);
  report->Add("mdp.legal_actions_us", Mean(s.probe.legal_actions_us), "us", L);
  report->Add("mcts.iterations", counter("mcts.iterations") / n, "1/query", L);
  report->Add("mdp.decisions", counter("mdp.decisions") / n, "1/query", L);
  report->Add("monsoon.loop_ms", Mean(s.loop_ms), "ms", L);
  report->Add("monsoon.execute_rounds", s.execute_rounds / n, "1/query", L);
  report->Add("exec.exec_ms", Mean(s.exec_ms), "ms", L);
  report->Add("exec.sigma_ms", Mean(s.sigma_ms), "ms", L);
  report->Add("exec.fixed_plan_ms", Mean(s.fixed_plan_exec_s) * 1e3, "ms", L);
  report->Add("exec.work_units_m", s.work_units_m, "Mwu", L);
  report->Add("exec.bloom_reject_ratio",
              Ratio(counter("exec.bloom_rejects"), counter("exec.bloom_checks")), "ratio", L);
  report->Add("exec.bloom_checks", counter("exec.bloom_checks") / n, "1/query", L);
  report->Add("exec.udf_cache_hit_ratio",
              Ratio(counter("exec.udf_cache_hits"),
                    counter("exec.udf_cache_hits") + counter("exec.udf_cache_misses")),
              "ratio", L);
  report->Add("parallel.pool_queue_us_p50",
              histogram == s.delta.histograms.end() ? 0
                                                   : obs::HistogramPercentile(histogram->second, 0.5),
              "us", L);
  report->Add("parallel.steal_ratio",
              Ratio(counter("pool.tasks_stolen"), counter("pool.tasks_run")), "ratio", L);
  report->Add("server.engine_ms_p50", Quantile(s.engine_ms, 0.5), "ms", L);
  report->Add("server.overhead_ms_p50", Quantile(s.outside_ms, 0.5), "ms", L);
  report->Add("server.overhead_ms_p99", Quantile(s.outside_ms, 0.99), "ms", L);
  report->Add("server.sigma_passes_per_query", s.stats_collections / n, "1/query", L);
  report->Add("server.udf_cache_hit_ratio",
              Ratio(s.cache_hits, s.cache_hits + s.cache_misses), "ratio", L);
  report->Add("server.queued_peak", s.queued_peak, "count", L);
  report->Add("bench.warmup_s", s.warmup_s, "s", L);
  report->Add("bench.generator_lag_ms_p99", Quantile(s.lag_ms, 0.99), "ms", L);
  report->Add("trace.overhead_frac", s.overhead_frac, "ratio", L);
  report->Add("trace.unattributed_frac", s.unattributed_frac, "ratio", L);
}

void PrintReport(const Report& report, bool trace) {
  std::cout << "== configuration\n";
  for (const auto& [key, value] : report.stamp) {
    std::cout << "  " << key << " = " << value << "\n";
  }
  std::cout << "== metrics\n";
  for (const Metric& metric : report.metrics) {
    std::cout << StrFormat("  %-34s %16.6f %-10s %s\n", metric.name.c_str(),
                           metric.value, metric.unit.c_str(),
                           KindName(metric.kind));
  }
  if (!report.layers.empty()) {
    std::cout << "== traced self time by layer (s)\n";
    for (const auto& [layer, seconds] : report.layers) {
      std::cout << StrFormat("  %-34s %12.6f\n", layer.c_str(), seconds);
    }
  }
  for (const std::string& error : report.errors) {
    std::cout << "CORRECTNESS: " << error << "\n";
  }
  std::ostringstream line;
  obs::JsonWriter json(line);
  json.BeginObject();
  json.KV("correct", report.correct);
  json.KV("attempted", report.attempted);
  json.KV("failed", report.failed);
  json.Key("metrics");
  json.BeginObject();
  MetricKind wanted = trace ? MetricKind::kPerLayer : MetricKind::kEndToEnd;
  for (const Metric& metric : report.metrics) {
    if (metric.kind != wanted) continue;
    json.Key(metric.name);
    json.BeginObject();
    json.KV("value", std::isfinite(metric.value) ? metric.value : 0.0);
    json.KV("unit", metric.unit);
    json.EndObject();
  }
  json.EndObject();
  json.EndObject();
  std::cout << line.str() << std::endl;
}

StatusOr<Workload> MakeWorkload(const std::string& name, double scale_factor) {
  if (name == "imdb_exec") {
    ImdbOptions options;
    options.scale = kImdbScale * scale_factor;
    options.seed = kImdbDataSeed;
    return MakeImdbWorkload(options);
  }
  if (name == "udf_plan" || name == "serve_udf") {
    UdfBenchOptions options;
    options.scale = kUdfScale * scale_factor;
    options.seed = kUdfDataSeed;
    return MakeUdfBenchWorkload(options);
  }
  return Status::InvalidArgument("unknown workload " + name);
}

std::vector<size_t> PassOrder(uint64_t seed, uint64_t pass, size_t n) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  Pcg32 rng(seed * 0x9e3779b97f4a7c15ull + pass);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  return order;
}

Status RepeatSetup(const std::function<StatusOr<double>()>& setup, int min_repeats,
                   std::vector<double>* setup_seconds) {
  double total = 0;
  for (int i = 0; i < min_repeats || (total < kSetupWindowSeconds && i < kMaxSetupRepeats);
       ++i) {
    MONSOON_ASSIGN_OR_RETURN(double seconds, setup());
    setup_seconds->push_back(seconds);
    total += seconds;
  }
  return Status::OK();
}

}  // namespace monsoon::perfbench
