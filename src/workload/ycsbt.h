#ifndef NATTO_WORKLOAD_YCSBT_H_
#define NATTO_WORKLOAD_YCSBT_H_

#include "workload/workload.h"
#include "workload/zipf.h"

namespace natto::workload {

/// YCSB+T as used in the paper (Sec 5.2.1): each transaction performs 6
/// read-modify-write operations on distinct Zipfian-chosen keys; the write
/// round increments each read value.
class YcsbTWorkload : public Workload {
 public:
  /// Read-modify-write operations per transaction (paper: 6).
  static constexpr int kOpsPerTxn = 6;

  struct Options {
    uint64_t num_keys = 1'000'000;  // paper: 1M 64-byte key-value pairs
    double zipf_theta = 0.65;       // paper default coefficient
    double high_priority_fraction = 0.10;
    /// Fraction of kMedium transactions (multi-level extension; drawn after
    /// the high-priority roll fails). 0 reproduces the paper's two levels.
    double medium_priority_fraction = 0.0;
  };

  explicit YcsbTWorkload(Options options);

  txn::TxnRequest Next(Rng& rng) override;
  std::string name() const override { return "YCSB+T"; }
  uint64_t keyspace() const override { return options_.num_keys; }

 private:
  Options options_;
  ZipfGenerator zipf_;
};

}  // namespace natto::workload

#endif  // NATTO_WORKLOAD_YCSBT_H_
