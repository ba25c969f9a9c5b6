#ifndef MONSOON_SKETCH_HYPERLOGLOG_H_
#define MONSOON_SKETCH_HYPERLOGLOG_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace monsoon {

/// Precision of every Σ distinct-count sketch (Monsoon's Σ operator and
/// the On-Demand baseline): 2^14 registers, ~0.8% relative standard error.
inline constexpr int kSigmaHllPrecision = 14;

/// HyperLogLog distinct-value sketch (Flajolet et al., with the small-range
/// linear-counting correction from Heule et al.'s HLL++ [22]). This is the
/// sketch Monsoon's Σ operator and the On-Demand baseline use to count
/// distinct UDF outputs in one pass over a materialized result.
///
/// Precision p selects 2^p registers; the relative standard error is
/// ~1.04/sqrt(2^p) (p=12 → ~1.6%).
class HyperLogLog {
 public:
  /// p must be in [4, 18].
  explicit HyperLogLog(int precision = 12);

  /// Creates or fails with InvalidArgument instead of asserting.
  static StatusOr<HyperLogLog> Create(int precision);

  /// Adds a pre-hashed item. Callers hash Values with Value::Hash().
  void AddHash(uint64_t hash);

  /// Current cardinality estimate.
  double Estimate() const;

  /// Merges another sketch of the same precision (register-wise max).
  Status Merge(const HyperLogLog& other);

  /// Resets all registers.
  void Clear();

  int precision() const { return precision_; }
  size_t num_registers() const { return registers_.size(); }

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace monsoon

#endif  // MONSOON_SKETCH_HYPERLOGLOG_H_
