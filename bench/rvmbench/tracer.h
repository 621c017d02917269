// Outside-in tracing for rvmbench's traced round.
//
// Spans are recorded at two layer boundaries, both from the benchmark's own
// files: around each RvmInstance call it makes (Tracer::Scope), and around
// each File::ReadAt/WriteAt/Sync the library makes through TimingEnv
// (Tracer::RecordIo). An os span's parent is the rvm call open on the same
// thread, so a group-commit leader's fsync is charged to its own
// EndTransaction and an rvm call's self time is its duration minus the os
// time inside it.
//
// Aggregates are kept per thread (no locking on the hot path) and merged
// after the client threads are joined. Raw spans are kept only for the first
// kJsonlTxns transactions, for the JSONL dump.
#ifndef RVMBENCH_TRACER_H_
#define RVMBENCH_TRACER_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace rvmbench {

// Every boundary the traced round times.
enum class Op : uint8_t {
  kBeginTransaction,
  kSetRange,
  kEndTransaction,
  kFlush,
  kInitialize,
  kMap,
  kLogRead,
  kLogWrite,
  kLogSync,
  kSegRead,
  kSegWrite,
  kSegSync,
  kChkRead,
  kChkWrite,
  kChkSync,
  kCount,
};
inline constexpr size_t kNumOps = static_cast<size_t>(Op::kCount);

// Span name, e.g. "rvm.SetRange" or "os.log.sync".
const char* OpName(Op op);

// What a file holds, decided by TimingEnv from its path.
enum class FileRole : uint8_t { kLog, kSeg, kChk };
enum class IoKind : uint8_t { kRead, kWrite, kSync };
inline Op IoOp(FileRole role, IoKind kind) {
  return static_cast<Op>(static_cast<uint8_t>(Op::kLogRead) +
                         3 * static_cast<uint8_t>(role) +
                         static_cast<uint8_t>(kind));
}

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// A fixed-capacity uniform sample of a stream of values (Algorithm R). The
// storage is allocated and touched up front, so the benchmark's own memory
// does not grow with the system's throughput and skew peak_rss_mb.
class Reservoir {
 public:
  Reservoir(size_t capacity, uint64_t seed) : values_(capacity), rng_(seed) {}

  void Add(double value) {
    ++seen_;
    if (seen_ <= values_.size()) {
      values_[seen_ - 1] = static_cast<float>(value);
      return;
    }
    const uint64_t slot = rng_.Below(seen_);
    if (slot < values_.size()) {
      values_[slot] = static_cast<float>(value);
    }
  }

  // The retained values, in no particular order.
  void AppendTo(std::vector<float>* out) const {
    const size_t kept = seen_ < values_.size() ? seen_ : values_.size();
    out->insert(out->end(), values_.begin(), values_.begin() + kept);
  }

 private:
  std::vector<float> values_;
  uint64_t seen_ = 0;
  rvm::Xoshiro256 rng_;
};

// Linear-interpolated percentile (0..100) of `values`; 0 when empty.
template <typename T>
double Percentile(std::vector<T> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

// One op's totals over everything the tracer recorded.
struct OpTotals {
  uint64_t count = 0;
  uint64_t bytes = 0;
  double total_us = 0;
  // Duration minus the os time recorded inside it on the same thread
  // (rvm ops only).
  double self_us = 0;
  // Retained per-call durations, in microseconds.
  std::vector<float> samples;

  double P(double p) const { return Percentile(samples, p); }
};

class Tracer {
 public:
  // Raw spans are written out for this many transactions.
  static constexpr uint64_t kJsonlTxns = 1000;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Recording is switched only while no other thread calls into the
  // library (before client threads start, after they are joined), so a
  // relaxed flag suffices.
  void SetActive(bool active) {
    active_.store(active, std::memory_order_relaxed);
  }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  // Spans one RvmInstance call on the calling thread. Does nothing when
  // `tracer` is null or inactive.
  class Scope {
   public:
    Scope(Tracer* tracer, Op op, uint64_t txn = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_txn(uint64_t txn) { txn_ = txn; }

   private:
    Tracer* tracer_;
    Op op_;
    uint64_t txn_;
    uint64_t start_ns_ = 0;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
  };

  // Records one File call made on the calling thread.
  void RecordIo(Op op, uint64_t start_ns, uint64_t end_ns, uint64_t bytes);

  // Counts one finished transaction toward the raw-span budget.
  void NoteTxnDone() {
    if (txns_done_.fetch_add(1, std::memory_order_relaxed) + 1 >= kJsonlTxns) {
      keep_spans_.store(false, std::memory_order_relaxed);
    }
  }

  // Merged totals; call only while no thread is recording.
  OpTotals Totals(Op op) const;
  // Writes the retained raw spans, one JSON object per line.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct SpanRecord {
    uint64_t id;
    uint64_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t txn;
    uint64_t bytes;
    uint32_t thread;
    Op op;
  };
  struct OpStats {
    explicit OpStats(uint64_t seed) : durations(kSamplesPerOp, seed) {}
    uint64_t count = 0;
    uint64_t bytes = 0;
    double total_us = 0;
    double self_us = 0;
    Reservoir durations;
  };
  struct ThreadState {
    explicit ThreadState(uint32_t index);
    uint32_t index;
    std::vector<OpStats> ops;
    std::vector<SpanRecord> spans;
    // The rvm span open on this thread (0 if none), its transaction, and
    // the os time recorded inside it so far.
    uint64_t open_span = 0;
    uint64_t open_txn = 0;
    uint64_t open_os_ns = 0;
  };
  // Retained per-call durations per (thread, op). Large enough to keep every
  // call of a multi-client round; only the single-client coda round samples.
  static constexpr size_t kSamplesPerOp = 1 << 16;

  ThreadState& Local();
  void Record(ThreadState& state, Op op, uint64_t start_ns, uint64_t end_ns,
              uint64_t bytes, double self_us);

  // Distinguishes this tracer in the per-thread state cache.
  const uint64_t id_;
  const uint64_t origin_ns_;
  std::atomic<bool> active_{false};
  std::atomic<bool> keep_spans_{true};
  std::atomic<uint64_t> txns_done_{0};
  std::atomic<uint64_t> next_span_id_{1};
  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

}  // namespace rvmbench

#endif  // RVMBENCH_TRACER_H_
