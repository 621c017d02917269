// The four rvmbench workloads, driven only through the public RvmInstance
// API. Each is a closed loop: a client issues its next transaction as soon
// as the previous one returns.
//
//   tpca     Paper §7.1.1 TPC-A, localized pattern, 131,072 accounts (a 32 MB
//            region, 4x the 8 MB log), kRestore + kFlush, one client. Commit
//            latency is log forces, the status write and inline truncation.
//   group    4 clients on 2 log shards, 256 B kNoRestore + kFlush updates at
//            random offsets of a client-owned 1 MB region; every 32nd also
//            writes the client's region on the other shard (a cross-shard
//            2PC commit). Group-commit handoff and the multi-shard paths.
//   coda     Table 2's Coda client: bursts of 2-16 kRestore + kNoFlush txns
//            on one of 64 directories, Flush() every 64 txns. Almost no
//            fsyncs, so commit-path CPU dominates.
//   restart  60,000 1 KB kNoRestore txns (every 32nd kFlush) with truncation
//            off, then a crash: recovery must scan and apply ~64 MB of log.
#ifndef RVMBENCH_WORKLOADS_H_
#define RVMBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bench/rvmbench/tracer.h"
#include "src/rvm/rvm.h"

namespace rvmbench {

// The RvmInstance calls a client makes, each spanned when `tracer` is
// non-null and active.
class Api {
 public:
  Api(rvm::RvmInstance* rvm, Tracer* tracer) : rvm_(rvm), tracer_(tracer) {}

  rvm::StatusOr<rvm::TransactionId> Begin(rvm::RestoreMode mode);
  rvm::Status SetRange(rvm::TransactionId tid, void* base, uint64_t length);
  rvm::Status End(rvm::TransactionId tid, rvm::CommitMode mode);
  rvm::Status Flush();

 private:
  rvm::RvmInstance* rvm_;
  Tracer* tracer_;
};

// One client's transaction stream.
class Client {
 public:
  virtual ~Client() = default;
  // Runs one transaction, plus the Flush() that falls due after it.
  virtual rvm::Status RunTxn(Api& api) = 0;
  // Cross-shard transactions this client has issued.
  uint64_t cross_shard_txns() const { return cross_shard_txns_; }

 protected:
  uint64_t cross_shard_txns_ = 0;
};

struct WorkloadSpec {
  const char* name;
  // Untraced rounds per run. restart's measured phase is short, so it runs
  // more rounds to sample as many moments of the host's load.
  int rounds;
  uint32_t clients;
  uint32_t log_shards;
  uint64_t log_bytes;  // per shard
  // Regions, mapped in this order as segments "seg<i>" of the round's
  // directory.
  std::vector<uint64_t> region_bytes;
  double truncation_threshold;
  // Nonzero for restart: the measured phase is this many transactions on a
  // fresh instance, with no warm-up, instead of a timed window.
  uint64_t load_txns;
  // Steady workloads, per client: transactions run after the window on an
  // emptied log (Truncate), so every round's crash leaves the same amount of
  // log for recovery to replay.
  uint64_t tail_txns;
  // Client `index` over the mapped region bases (in region_bytes order),
  // with its inputs drawn from `seed`.
  std::unique_ptr<Client> (*make_client)(uint32_t index,
                                         const std::vector<uint8_t*>& bases,
                                         uint64_t seed);
};

// All workloads, in the order a full run interleaves them.
const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

}  // namespace rvmbench

#endif  // RVMBENCH_WORKLOADS_H_
