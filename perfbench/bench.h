// Shared pieces of the repository benchmark: pinned configuration, the
// benchmark's own span recorder, sample statistics, the correctness gate's
// row-order-free content hash, and the metric report.
//
// The benchmark drives the system only through its public entry points;
// everything here is measurement scaffolding around those calls.

#ifndef MONSOON_PERFBENCH_BENCH_H_
#define MONSOON_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "monsoon/monsoon_optimizer.h"
#include "obs/metrics.h"
#include "storage/table.h"
#include "workloads/workload.h"

namespace monsoon::perfbench {

// ---------------------------------------------------------------------------
// Pinned configuration. Every knob the measured code reads is set here, so
// two commits are measured under the same settings. Root-parallel MCTS
// picks different plans at different worker counts, so objects_m is only
// comparable at a fixed thread count: the thread count is a constant, not
// nproc.

inline constexpr int kOneShotThreads = 4;  // threads per query, imdb/udf
inline constexpr int kServeThreads = 1;    // threads per query, serve_udf
inline constexpr size_t kBatchSize = 1024;
inline constexpr size_t kMorselSize = 2048;
inline constexpr int kShards = 1;
inline constexpr size_t kUdfCacheBytes = size_t{256} << 20;
inline constexpr int kMctsIterations = 300;
inline constexpr uint64_t kOptimizerSeed = 0x5eed;
/// serve_udf shares neither the UDF column cache nor the statistics memo
/// across sessions: with sharing on, the server returns wrong row counts
/// (see perfbench/README.md), which the correctness gate reports.
inline constexpr bool kServeShareState = false;

inline constexpr double kImdbScale = 1.0;
inline constexpr uint64_t kImdbBudget = 6250000;  // 2.5M at scale 0.4, scaled
inline constexpr uint64_t kImdbDataSeed = 113;
inline constexpr double kUdfScale = 0.5;
inline constexpr uint64_t kUdfBudget = 2500000;
inline constexpr uint64_t kUdfDataSeed = 25;

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Shrinks data and run length for the self-test (1 = the real sizes).
  double scale_factor = 1.0;
  /// Adds one to every reference row count, so the correctness gate must
  /// fire (self-test of the gate).
  bool corrupt_reference = false;
  std::string sha = "unknown";
  std::string out_dir = ".";
};

/// Installs the pinned process-wide configuration (threads, batch and
/// morsel size, shards, UDF cache budget, faults off).
void PinConfig(int threads);

/// Non-OK when any MONSOON_* environment variable is set: the library reads
/// those on first use, so a stray one would silently change what is
/// measured.
Status RefuseEnvironmentKnobs();

// ---------------------------------------------------------------------------
// Time and statistics.

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for no samples.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

uint64_t CounterDelta(const obs::MetricsSnapshot& delta, const std::string& name);

/// Adds the counters and histograms of `delta` into `total`.
void MergeDelta(const obs::MetricsSnapshot& delta, obs::MetricsSnapshot* total);

/// ratio = num / den, or 0 when den is 0.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

// ---------------------------------------------------------------------------
// Correctness gate.

/// Row-order-free content hash of a result table whose columns are first
/// put in name order, so two strategies that joined in different orders
/// (and therefore laid the columns out differently) hash alike. Built from
/// shard::RowContentHash. Fails when column names repeat (the layout
/// cannot be normalised).
StatusOr<uint64_t> NormalizedContentHash(const Table& table);

/// The reference strategy for a query: the full-statistics baseline where
/// it accepts the query, Defaults otherwise (full-stats refuses
/// multi-relation UDF terms).
struct Reference {
  bool ok = false;
  std::string strategy;
  uint64_t rows = 0;
  uint64_t content_hash = 0;
  bool hashed = false;
  double exec_seconds = 0;
};

Reference RunReference(const Catalog& catalog, const QuerySpec& spec,
                       uint64_t work_budget);

class SpanRecorder;

/// Isolated planner probes from every suite query's initial state, at the
/// pinned worker count: LegalActions (us per call, over repeats) and one
/// RootParallelMcts::SearchBestAction (us per iteration, tree nodes).
struct PlannerProbe {
  std::vector<double> legal_actions_us;
  std::vector<double> search_us_per_iter;
  std::vector<double> tree_nodes;
};

PlannerProbe ProbePlanner(const Workload& workload, const MonsoonOptimizer::Options& options,
                          SpanRecorder* spans);

// ---------------------------------------------------------------------------
// The benchmark's own spans. Each span has a name, start, end and parent;
// spans of one query share its id. Kept in memory and written out at the
// end. Single-threaded per recorder; concurrent clients each own one.

struct Span {
  std::string name;
  uint64_t query_id = 0;
  int parent = -1;  // index into the recorder's span vector
  double start_s = 0;
  double end_s = 0;
};

class SpanRecorder {
 public:
  SpanRecorder(bool enabled, Clock::time_point origin)
      : enabled_(enabled), origin_(origin) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open span; returns its handle
  /// (-1 when disabled).
  int Begin(const std::string& name, uint64_t query_id);
  void End(int handle);
  /// Records an already-timed interval as a child of `parent`.
  void Add(const std::string& name, uint64_t query_id, int parent,
           Clock::time_point start, Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double Offset(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Self time per span name: duration minus the part covered by its
/// children. Spans of several recorders are folded together.
std::map<std::string, double> FoldSelfTimes(
    const std::vector<const SpanRecorder*>& recorders);

Status WriteSpans(const std::string& path,
                  const std::vector<const SpanRecorder*>& recorders);

// ---------------------------------------------------------------------------
// Report.

enum class MetricKind { kEndToEnd, kPerLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  MetricKind kind = MetricKind::kInfo;
};

/// Everything one run prints. `attempted` / `failed` count measured
/// operations; `correct` is the correctness gate's verdict.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, std::string>> stamp;
  /// Per-layer self seconds from the traced run (empty untraced).
  std::vector<std::pair<std::string, double>> layers;

  void Add(const std::string& name, double value, const std::string& unit,
           MetricKind kind) {
    metrics.push_back({name, value, unit, kind});
  }
  void Fail(const std::string& error) {
    correct = false;
    errors.push_back(error);
  }
};

/// The end-to-end metrics (names and units as BENCHMARK.json spells them).
/// setup_s is the minimum of `setup_seconds`.
void AddEndToEnd(double p50_ms, double p95_ms, double qps, double objects_m,
                 const std::vector<double>& setup_seconds, Report* report);

/// What both workload runners collect for the per-layer metrics, which
/// AddLayerMetrics names in one place.
struct LayerSamples {
  /// Per completed query: engine time split by the program's own timers,
  /// and the time of the call (or round trip) outside the engine.
  std::vector<double> plan_ms, sigma_ms, exec_ms, loop_ms, engine_ms, outside_ms;
  std::vector<double> parse_us, lag_ms, fixed_plan_exec_s;
  double queries = 0;  // the per-query means divide by this
  double execute_rounds = 0, stats_collections = 0, cache_hits = 0, cache_misses = 0;
  double work_units_m = 0;  // per pass, or per suite-sized batch on serve
  double queued_peak = 0, warmup_s = 0;
  double overhead_frac = 0, unattributed_frac = 0;  // traced run only
  PlannerProbe probe;                               // traced run only
  obs::MetricsSnapshot delta;  // registry delta over the measured queries

  void AddEngine(double total_s, double plan_s, double stats_s, double exec_s,
                 double outside_s) {
    plan_ms.push_back(plan_s * 1e3);
    sigma_ms.push_back(stats_s * 1e3);
    exec_ms.push_back(exec_s * 1e3);
    loop_ms.push_back((total_s - plan_s - stats_s - exec_s) * 1e3);
    engine_ms.push_back(total_s * 1e3);
    outside_ms.push_back(outside_s * 1e3);
  }
};

void AddLayerMetrics(const LayerSamples& samples, Report* report);

/// Prints the human-readable report, then the one-line JSON result as the
/// last line of stdout: end-to-end metrics untraced, per-layer metrics
/// traced. Informational metrics are printed but not part of that line.
void PrintReport(const Report& report, bool trace);

// ---------------------------------------------------------------------------
// Workloads.

/// The workload's data and query suite. The data seeds are fixed (the
/// suites the paper tables are measured on): the workload seed varies the
/// query order and arrival schedule instead, because new data per seed
/// moves plans, timeouts and objects_m far more than any bound allows.
StatusOr<Workload> MakeWorkload(const std::string& name, double scale_factor);

/// The suite order for one pass: a permutation of [0, n) drawn from the
/// workload seed and the pass number.
std::vector<size_t> PassOrder(uint64_t seed, uint64_t pass, size_t n);

/// Set-up time on a shared machine shifts between fast and slow phases
/// (15 ms against 25 ms for the UDF catalog), so set-up is repeated in a
/// window before the measurement, once after every pass, serve window or
/// ladder rung, and in a window after it; each window lasts at least this
/// long (and at most this many repeats). setup_s is the minimum of all of
/// them: the share of slow phases differs from run to run and moves a median
/// or a low quantile from one speed to the other, while the minimum tracks
/// the fast phase, which a run with this many repeats samples.
inline constexpr double kSetupWindowSeconds = 1.0;
inline constexpr int kMaxSetupRepeats = 60;

/// Runs `setup` (which returns its own wall time, or an error) at least
/// `min_repeats` times and until kSetupWindowSeconds have passed,
/// appending each time to `setup_seconds`.
Status RepeatSetup(const std::function<StatusOr<double>()>& setup, int min_repeats,
                   std::vector<double>* setup_seconds);

Report RunOneShot(const Args& args);
Report RunServe(const Args& args);

}  // namespace monsoon::perfbench

#endif  // MONSOON_PERFBENCH_BENCH_H_
