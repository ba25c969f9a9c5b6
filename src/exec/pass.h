#ifndef MONSOON_EXEC_PASS_H_
#define MONSOON_EXEC_PASS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "fault/injector.h"
#include "parallel/parallel_for.h"
#include "shard/shard.h"
#include "storage/table.h"

namespace monsoon {

// The executor's one pass driver (DESIGN.md §6). Every data pass — scan,
// join build, join probe, cross product, Σ — is one range body that
// PassRanges runs once per shard under the shard supervisor when the query
// is sharded, else once per morsel under ParallelFor (one inline range when
// there is no pool). Bodies write range-local outputs that commit to their
// range's slot only on success; the caller merges the slots in range
// order, so the merged output is the same at every thread count, shard
// count and recovered kill.

/// One contiguous row range of a pass: a shard or a morsel.
struct Range {
  size_t index = 0;  // shard or morsel number: the range's output slot
  size_t begin = 0;
  size_t end = 0;
  uint32_t attempt = 0;     // supervisor attempt; 0 for morsels
  bool supervised = false;  // a shard: fires the mid-pass kill site

  /// Runs `part` over [begin, end). A shard runs it in two halves around
  /// the shard.exec kill site, so a kill always discards a half-built
  /// range-local output and the retry re-reads exactly this shard.
  template <typename Part>
  Status Run(Part&& part) const {
    if (!supervised) return part(begin, end);
    const size_t mid = begin + (end - begin) / 2;
    MONSOON_RETURN_IF_ERROR(part(begin, mid));
    MONSOON_RETURN_IF_ERROR(
        fault::FireAttempt(shard::kShardExecPoint, index, attempt));
    return part(mid, end);
  }
};

/// The ranges one pass runs over an input of `rows` rows.
class PassRanges {
 public:
  /// Sharded queries iterate the input's own hash-range map when it
  /// matches the table and the shard count, else an even contiguous split
  /// (the accounting invariant holds for ANY contiguous decomposition,
  /// DESIGN.md §15). Unsharded ones iterate morsels of `morsel_size` when
  /// the context's pool can run them concurrently, else one range over the
  /// whole input: more ranges only buy balance across lanes, and their
  /// local outputs double the pass's peak memory at the merge.
  PassRanges(const ExecContext& ctx, const shard::ShardMapPtr& hint,
             size_t rows, size_t morsel_size)
      : rows_(rows),
        morsel_size_(ctx.pool() != nullptr && ctx.pool()->num_workers() > 0
                         ? morsel_size
                         : std::max<size_t>(rows, 1)) {
    const size_t shards = ctx.num_shards();
    if (shards <= 1) return;
    map_ = hint != nullptr && hint->num_shards() == shards &&
                   hint->total_rows() == rows
               ? hint
               : shard::EvenMap(rows, shards);
  }

  bool sharded() const { return map_ != nullptr; }
  size_t size() const {
    return sharded() ? map_->num_shards()
                     : parallel::NumMorsels(rows_, morsel_size_);
  }

  /// Runs `body` once per range. Shards run under shard::RunSharded, which
  /// retries a transiently failed shard (the body starts a fresh local
  /// output per attempt) and folds its recovery counts into `ctx`.
  Status Run(ExecContext* ctx,
             const std::function<Status(const Range&)>& body) const {
    if (!sharded()) {
      return parallel::ParallelFor(
          ctx->pool(), rows_, morsel_size_, ctx->cancel_token(),
          [&](size_t m, size_t begin, size_t end) {
            return body(Range{m, begin, end, 0, false});
          });
    }
    shard::ShardRunStats stats;
    Status run = shard::RunSharded(
        ctx->pool(), ctx->cancel_token(), *map_, shard::kShardExecPoint,
        [&](size_t s, size_t begin, size_t end, uint32_t attempt) {
          return body(Range{s, begin, end, attempt, true});
        },
        &stats);
    ctx->AddShardStats(stats);
    return run;
  }

  /// Moves the committed range tables into `out` in range order. For a
  /// sharded pass, returns the output's shard map: the cumulative range
  /// output sizes, so downstream passes split the intermediate along the
  /// boundaries its producer emitted (a function of shard contents only).
  shard::ShardMapPtr Concat(std::vector<Table>* locals, Table* out) const {
    shard::ShardMapPtr map;
    if (sharded()) {
      auto offsets = std::make_shared<shard::ShardMap>();
      offsets->offsets.push_back(0);
      for (const Table& local : *locals) {
        offsets->offsets.push_back(offsets->offsets.back() + local.num_rows());
      }
      map = std::move(offsets);
    }
    size_t total = 0;
    for (const Table& local : *locals) total += local.num_rows();
    for (Table& local : *locals) {
      out->TakeRowsFrom(&local);
      // The first take moves a local's columns in whole; reserving right
      // after it turns every later take into one append instead of a chain
      // of doubling reallocations (which showed up as peak RSS).
      out->Reserve(total);
    }
    return map;
  }

 private:
  shard::ShardMapPtr map_;  // null: morsels
  size_t rows_;
  size_t morsel_size_;
};

inline Status BudgetExceeded() {
  return Status::ResourceExhausted("work budget exceeded");
}

/// One range's share of a pass's work budget: a plain add and compare per
/// unit against the budget left when the range started.
struct RangeTally {
  uint64_t used = 0;
  uint64_t budget = 0;

  /// Counts one unit; false once the range is over its budget.
  bool Add() { return ++used <= budget; }
};

/// The work units one pass tallies range-locally (probe rows and hash
/// candidates, cross-product pairs) and charges once, at its end. Ranges
/// publish their tally when they finish or trip. Run one after another
/// (no pool), a range trips on exactly the unit where per-unit ChargeWork
/// would; concurrent ranges only see tallies published before they
/// started, so they may trip later, but never when the pass fits.
class PassWork {
 public:
  explicit PassWork(const ExecContext& ctx) : limit_(ctx.RemainingWork()) {}

  RangeTally StartRange() const {
    const uint64_t published = published_.load(std::memory_order_relaxed);
    return RangeTally{0, published < limit_ ? limit_ - published : 0};
  }

  /// Publishes a range's tally given how the range ended. A budget trip
  /// publishes too, so the failed query reports the work done up to the
  /// trip; any other failure does not, so a killed shard attempt that is
  /// retried from scratch counts once.
  Status Finish(const RangeTally& tally, Status status) {
    if (!status.ok() && status.code() != StatusCode::kResourceExhausted) {
      return status;
    }
    const uint64_t before =
        published_.fetch_add(tally.used, std::memory_order_relaxed);
    if (status.ok() && before + tally.used > limit_) return BudgetExceeded();
    return status;
  }

  /// Charges every published unit, also after a failed pass.
  Status Charge(ExecContext* ctx) const {
    return ctx->ChargeWork(published_.load(std::memory_order_relaxed));
  }

 private:
  const uint64_t limit_;
  std::atomic<uint64_t> published_{0};
};

}  // namespace monsoon

#endif  // MONSOON_EXEC_PASS_H_
