#ifndef MONSOON_SERVER_SHARED_STATE_H_
#define MONSOON_SERVER_SHARED_STATE_H_

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "catalog/stats_store.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "exec/udf_cache.h"

namespace monsoon::server {

/// Cross-session state shared by every query the server runs:
///
///  - one UdfColumnCache installed into every session's MaterializedStore,
///    so a UDF column evaluated for one query is a hit for the next query
///    touching the same base table. The cache is internally synchronized,
///    keys columns by the bound term's function and argument columns
///    (never a query's own term numbering) and validates entries against
///    exact Table identity, so sharing is a pure performance layer, never
///    a correctness hazard.
///  - a statistics memo: the hardened StatsStore S of each successful run,
///    keyed by the query's fingerprint (QuerySpec::ToString — ExprSig
///    relation indices are query-relative, so stats are only reusable
///    between queries with identical structure). A later identical query
///    warm-starts the MDP from the memo and skips the Σ collection passes
///    it already paid for.
///
/// Locking order: memo_mu_ is a leaf lock — no other lock is acquired and
/// no blocking call is made while it is held (UdfColumnCache's internal
/// mu_ is never nested with it; see tools/lint/lock_ranks.h).
class SharedServerState {
 public:
  explicit SharedServerState(size_t max_memo_entries = 64)
      : udf_cache_(std::make_shared<UdfColumnCache>(DefaultUdfCacheBytes())),
        max_memo_entries_(max_memo_entries) {}

  SharedServerState(const SharedServerState&) = delete;
  SharedServerState& operator=(const SharedServerState&) = delete;

  const std::shared_ptr<UdfColumnCache>& udf_cache() const {
    return udf_cache_;
  }

  /// Copies the memoized stats for `fingerprint` into `*out`. False when
  /// the fingerprint has never completed.
  bool LookupStats(const std::string& fingerprint, StatsStore* out) const;

  /// Memoizes (or refreshes) the hardened stats of a finished run.
  /// Inserts evict the oldest fingerprint beyond the entry cap.
  void StoreStats(const std::string& fingerprint, StatsStore stats);

  size_t memo_size() const;

 private:
  std::shared_ptr<UdfColumnCache> udf_cache_;
  const size_t max_memo_entries_;

  mutable Mutex memo_mu_;
  std::map<std::string, StatsStore> memo_ GUARDED_BY(memo_mu_);
  std::deque<std::string> memo_order_ GUARDED_BY(memo_mu_);
};

}  // namespace monsoon::server

#endif  // MONSOON_SERVER_SHARED_STATE_H_
