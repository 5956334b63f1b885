#include "workload/ycsbt.h"

#include <algorithm>

namespace natto::workload {

YcsbTWorkload::YcsbTWorkload(Options options)
    : options_(options), zipf_(options.num_keys, options.zipf_theta) {}

txn::TxnRequest YcsbTWorkload::Next(Rng& rng) {
  txn::TxnRequest req;
  req.priority = DrawPriority(rng, options_.high_priority_fraction);
  if (req.priority == txn::Priority::kLow &&
      options_.medium_priority_fraction > 0.0 &&
      rng.Bernoulli(options_.medium_priority_fraction /
                    (1.0 - options_.high_priority_fraction))) {
    req.priority = txn::Priority::kMedium;
  }
  // Distinct keys per transaction.
  while (static_cast<int>(req.read_set.size()) < kOpsPerTxn) {
    Key k = zipf_.Next(rng);
    if (std::find(req.read_set.begin(), req.read_set.end(), k) ==
        req.read_set.end()) {
      req.read_set.push_back(k);
    }
  }
  req.write_set = req.read_set;
  req.compute_writes = [](const std::vector<txn::ReadResult>& reads) {
    txn::WriteDecision d;
    d.writes.reserve(reads.size());
    for (const txn::ReadResult& r : reads) {
      d.writes.emplace_back(r.key, r.value + 1);  // read-modify-write
    }
    return d;
  };
  return req;
}

}  // namespace natto::workload
