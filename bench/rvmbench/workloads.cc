#include "bench/rvmbench/workloads.h"

#include <cstring>

#include "src/util/random.h"
#include "src/workload/tpca.h"

namespace rvmbench {
namespace {

using rvm::CommitMode;
using rvm::RestoreMode;
using rvm::Status;
using rvm::TransactionId;

constexpr uint64_t kMiB = 1ull << 20;

rvm::TpcaConfig TpcaShape(uint64_t seed) {
  rvm::TpcaConfig config;
  config.num_accounts = 131072;
  config.pattern = rvm::TpcaPattern::kLocalized;
  config.seed = seed;
  return config;
}

// Region layout [accounts | audit | tellers | branches], as in the simulated
// TPC-A benches; four set_ranges per transaction (128/64/128/128 B).
class TpcaClient final : public Client {
 public:
  TpcaClient(uint8_t* base, uint64_t seed)
      : base_(base), workload_(TpcaShape(seed)) {}

  Status RunTxn(Api& api) override {
    const rvm::TpcaConfig& config = workload_.config();
    const rvm::TpcaTxn txn = workload_.Next();
    const uint64_t audit_base = config.accounts_bytes();
    const uint64_t tellers_base = audit_base + config.audit_bytes();
    const uint64_t branches_base = tellers_base + config.tellers_bytes();
    const std::pair<uint64_t, uint64_t> ranges[] = {
        {txn.account * rvm::TpcaConfig::kAccountBytes,
         rvm::TpcaConfig::kAccountBytes},
        {audit_base + txn.audit_slot * rvm::TpcaConfig::kAuditBytes,
         rvm::TpcaConfig::kAuditBytes},
        {tellers_base + txn.teller * rvm::TpcaConfig::kAccountBytes,
         rvm::TpcaConfig::kAccountBytes},
        {branches_base + txn.branch * rvm::TpcaConfig::kAccountBytes,
         rvm::TpcaConfig::kAccountBytes},
    };
    RVM_ASSIGN_OR_RETURN(TransactionId tid, api.Begin(RestoreMode::kRestore));
    const int fill = static_cast<int>(++txns_ & 0xFF);
    for (const auto& [offset, bytes] : ranges) {
      RVM_RETURN_IF_ERROR(api.SetRange(tid, base_ + offset, bytes));
      std::memset(base_ + offset, fill, bytes);
    }
    return api.End(tid, CommitMode::kFlush);
  }

 private:
  uint8_t* base_;
  rvm::TpcaWorkload workload_;
  uint64_t txns_ = 0;
};

class GroupClient final : public Client {
 public:
  static constexpr uint64_t kRegionBytes = kMiB;
  static constexpr uint64_t kUpdateBytes = 256;
  static constexpr uint64_t kCrossShardEvery = 32;

  GroupClient(uint8_t* own, uint8_t* other_shard, uint64_t seed)
      : own_(own), other_shard_(other_shard), rng_(seed) {}

  Status RunTxn(Api& api) override {
    RVM_ASSIGN_OR_RETURN(TransactionId tid,
                         api.Begin(RestoreMode::kNoRestore));
    const int fill = static_cast<int>(++txns_ & 0xFF);
    uint8_t* target = own_ + rng_.Below(kRegionBytes - kUpdateBytes);
    RVM_RETURN_IF_ERROR(api.SetRange(tid, target, kUpdateBytes));
    std::memset(target, fill, kUpdateBytes);
    if (txns_ % kCrossShardEvery == 0) {
      ++cross_shard_txns_;
      target = other_shard_ + rng_.Below(kRegionBytes - kUpdateBytes);
      RVM_RETURN_IF_ERROR(api.SetRange(tid, target, kUpdateBytes));
      std::memset(target, fill, kUpdateBytes);
    }
    return api.End(tid, CommitMode::kFlush);
  }

 private:
  uint8_t* own_;
  uint8_t* other_shard_;
  rvm::Xoshiro256 rng_;
  uint64_t txns_ = 0;
};

// The Coda client mechanisms behind Table 2 (src/workload/coda.h): a burst
// updates one directory; half of its transactions rewrite the previous
// block (a later no-flush commit subsumes the earlier record), and half
// re-declare the header, as a defensive helper would (intra coalescing).
class CodaClient final : public Client {
 public:
  static constexpr uint64_t kDirectories = 64;
  static constexpr uint64_t kDirectoryBytes = 4096;
  static constexpr uint64_t kHeaderBytes = 64;
  static constexpr uint64_t kBlockBytes = 512;
  static constexpr uint64_t kBlocks = (kDirectoryBytes - kHeaderBytes) / kBlockBytes;
  static constexpr uint64_t kFlushEvery = 64;

  CodaClient(uint8_t* base, uint64_t seed) : base_(base), rng_(seed) {}

  Status RunTxn(Api& api) override {
    if (burst_left_ == 0) {
      directory_ = rng_.Below(kDirectories);
      burst_left_ = rng_.Range(2, 16);
      block_ = rng_.Below(kBlocks);
    } else if (rng_.NextDouble() >= 0.5) {
      block_ = (block_ + 1) % kBlocks;
    }
    --burst_left_;
    uint8_t* header = base_ + directory_ * kDirectoryBytes;
    uint8_t* block = header + kHeaderBytes + block_ * kBlockBytes;
    const int fill = static_cast<int>(++txns_ & 0xFF);

    RVM_ASSIGN_OR_RETURN(TransactionId tid, api.Begin(RestoreMode::kRestore));
    RVM_RETURN_IF_ERROR(api.SetRange(tid, header, kHeaderBytes));
    std::memset(header, fill, kHeaderBytes);
    RVM_RETURN_IF_ERROR(api.SetRange(tid, block, kBlockBytes));
    std::memset(block, fill, kBlockBytes);
    if (rng_.NextDouble() < 0.5) {
      RVM_RETURN_IF_ERROR(api.SetRange(tid, header, kHeaderBytes));
    }
    RVM_RETURN_IF_ERROR(api.End(tid, CommitMode::kNoFlush));
    if (txns_ % kFlushEvery == 0) {
      return api.Flush();
    }
    return rvm::OkStatus();
  }

 private:
  uint8_t* base_;
  rvm::Xoshiro256 rng_;
  uint64_t txns_ = 0;
  uint64_t directory_ = 0;
  uint64_t burst_left_ = 0;
  uint64_t block_ = 0;
};

class RestartClient final : public Client {
 public:
  static constexpr uint64_t kRegionBytes = 32 * kMiB;
  static constexpr uint64_t kUpdateBytes = 1024;
  static constexpr uint64_t kFlushEvery = 32;

  RestartClient(uint8_t* base, uint64_t seed) : base_(base), rng_(seed) {}

  Status RunTxn(Api& api) override {
    RVM_ASSIGN_OR_RETURN(TransactionId tid,
                         api.Begin(RestoreMode::kNoRestore));
    uint8_t* target = base_ + rng_.Below(kRegionBytes - kUpdateBytes);
    RVM_RETURN_IF_ERROR(api.SetRange(tid, target, kUpdateBytes));
    std::memset(target, static_cast<int>(++txns_ & 0xFF), kUpdateBytes);
    return api.End(tid, txns_ % kFlushEvery == 0 ? CommitMode::kFlush
                                                 : CommitMode::kNoFlush);
  }

 private:
  uint8_t* base_;
  rvm::Xoshiro256 rng_;
  uint64_t txns_ = 0;
};

}  // namespace

rvm::StatusOr<TransactionId> Api::Begin(RestoreMode mode) {
  Tracer::Scope scope(tracer_, Op::kBeginTransaction);
  rvm::StatusOr<TransactionId> tid = rvm_->BeginTransaction(mode);
  if (tid.ok()) {
    scope.set_txn(*tid);
  }
  return tid;
}

Status Api::SetRange(TransactionId tid, void* base, uint64_t length) {
  Tracer::Scope scope(tracer_, Op::kSetRange, tid);
  return rvm_->SetRange(tid, base, length);
}

Status Api::End(TransactionId tid, CommitMode mode) {
  Status status;
  {
    Tracer::Scope scope(tracer_, Op::kEndTransaction, tid);
    status = rvm_->EndTransaction(tid, mode);
  }
  if (tracer_ != nullptr && tracer_->active()) {
    tracer_->NoteTxnDone();
  }
  return status;
}

Status Api::Flush() {
  Tracer::Scope scope(tracer_, Op::kFlush);
  return rvm_->Flush();
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = {
      {"tpca", 3, 1, 1, 8 * kMiB, {TpcaShape(0).rmem_bytes()}, 0.50, 0, 4000,
       [](uint32_t, const std::vector<uint8_t*>& bases,
          uint64_t seed) -> std::unique_ptr<Client> {
         return std::make_unique<TpcaClient>(bases[0], seed);
       }},
      // Regions 0-3 are clients 0-3's own, 4-7 the other-shard regions of
      // clients 1, 0, 3, 2. Segment ids are assigned from 1 in first-Map
      // order and a region's shard is its id mod 2, so this order puts two
      // clients' own regions on each shard and each other-shard region on
      // the shard its client does not own. The run checks the outcome:
      // every 32nd txn must count as a cross-shard commit.
      {"group", 3, 4, 2, 4 * kMiB,
       std::vector<uint64_t>(8, GroupClient::kRegionBytes), 0.50, 0, 1000,
       [](uint32_t index, const std::vector<uint8_t*>& bases,
          uint64_t seed) -> std::unique_ptr<Client> {
         return std::make_unique<GroupClient>(bases[index],
                                              bases[4 + (index ^ 1)], seed);
       }},
      {"coda", 3, 1, 1, 16 * kMiB,
       {CodaClient::kDirectories * CodaClient::kDirectoryBytes}, 0.50, 0, 8000,
       [](uint32_t, const std::vector<uint8_t*>& bases,
          uint64_t seed) -> std::unique_ptr<Client> {
         return std::make_unique<CodaClient>(bases[0], seed);
       }},
      {"restart", 9, 1, 1, 96 * kMiB, {RestartClient::kRegionBytes}, 1.0, 60000,
       0,
       [](uint32_t, const std::vector<uint8_t*>& bases,
          uint64_t seed) -> std::unique_ptr<Client> {
         return std::make_unique<RestartClient>(bases[0], seed);
       }},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace rvmbench
