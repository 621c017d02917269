#include "bench/rvmbench/tracer.h"

#include <algorithm>
#include <cstdio>

namespace rvmbench {
namespace {

// Each Tracer gets a distinct id so a thread's cached state is never reused
// by a later Tracer that happens to live at the same address.
std::atomic<uint64_t> g_next_tracer_id{1};

struct ThreadCache {
  uint64_t tracer_id = 0;
  void* state = nullptr;
};
thread_local ThreadCache t_cache;

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kBeginTransaction:
      return "rvm.BeginTransaction";
    case Op::kSetRange:
      return "rvm.SetRange";
    case Op::kEndTransaction:
      return "rvm.EndTransaction";
    case Op::kFlush:
      return "rvm.Flush";
    case Op::kInitialize:
      return "rvm.Initialize";
    case Op::kMap:
      return "rvm.Map";
    case Op::kLogRead:
      return "os.log.read";
    case Op::kLogWrite:
      return "os.log.write";
    case Op::kLogSync:
      return "os.log.sync";
    case Op::kSegRead:
      return "os.seg.read";
    case Op::kSegWrite:
      return "os.seg.write";
    case Op::kSegSync:
      return "os.seg.sync";
    case Op::kChkRead:
      return "os.chk.read";
    case Op::kChkWrite:
      return "os.chk.write";
    case Op::kChkSync:
      return "os.chk.sync";
    case Op::kCount:
      break;
  }
  return "?";
}

Tracer::ThreadState::ThreadState(uint32_t thread_index) : index(thread_index) {
  ops.reserve(kNumOps);
  for (size_t op = 0; op < kNumOps; ++op) {
    ops.emplace_back(thread_index * kNumOps + op + 1);
  }
}

Tracer::Tracer()
    : id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      origin_ns_(NowNanos()) {}

Tracer::ThreadState& Tracer::Local() {
  if (t_cache.tracer_id != id_) {
    std::lock_guard<std::mutex> lock(threads_mu_);
    threads_.push_back(
        std::make_unique<ThreadState>(static_cast<uint32_t>(threads_.size())));
    t_cache.tracer_id = id_;
    t_cache.state = threads_.back().get();
  }
  return *static_cast<ThreadState*>(t_cache.state);
}

void Tracer::Record(ThreadState& state, Op op, uint64_t start_ns,
                    uint64_t end_ns, uint64_t bytes, double self_us) {
  OpStats& stats = state.ops[static_cast<size_t>(op)];
  const double us = static_cast<double>(end_ns - start_ns) / 1000.0;
  ++stats.count;
  stats.bytes += bytes;
  stats.total_us += us;
  stats.self_us += self_us;
  stats.durations.Add(us);
}

Tracer::Scope::Scope(Tracer* tracer, Op op, uint64_t txn)
    : tracer_(tracer != nullptr && tracer->active() ? tracer : nullptr),
      op_(op),
      txn_(txn) {
  if (tracer_ == nullptr) {
    return;
  }
  ThreadState& state = tracer_->Local();
  id_ = tracer_->next_span_id_.fetch_add(1, std::memory_order_relaxed);
  parent_ = state.open_span;
  state.open_span = id_;
  state.open_txn = txn_;
  state.open_os_ns = 0;
  start_ns_ = NowNanos();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  const uint64_t end_ns = NowNanos();
  ThreadState& state = tracer_->Local();
  const double self_us =
      static_cast<double>(end_ns - start_ns_ - state.open_os_ns) / 1000.0;
  tracer_->Record(state, op_, start_ns_, end_ns, 0, self_us);
  if (tracer_->keep_spans_.load(std::memory_order_relaxed)) {
    state.spans.push_back(
        {id_, parent_, start_ns_, end_ns, txn_, 0, state.index, op_});
  }
  state.open_span = parent_;
  state.open_txn = 0;
  state.open_os_ns = 0;
}

void Tracer::RecordIo(Op op, uint64_t start_ns, uint64_t end_ns,
                      uint64_t bytes) {
  ThreadState& state = Local();
  Record(state, op, start_ns, end_ns, bytes, 0);
  if (state.open_span != 0) {
    state.open_os_ns += end_ns - start_ns;
  }
  if (keep_spans_.load(std::memory_order_relaxed)) {
    state.spans.push_back({next_span_id_.fetch_add(1, std::memory_order_relaxed),
                           state.open_span, start_ns, end_ns, state.open_txn,
                           bytes, state.index, op});
  }
}

OpTotals Tracer::Totals(Op op) const {
  OpTotals totals;
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (const auto& state : threads_) {
    const OpStats& stats = state->ops[static_cast<size_t>(op)];
    totals.count += stats.count;
    totals.bytes += stats.bytes;
    totals.total_us += stats.total_us;
    totals.self_us += stats.self_us;
    // Pooling is unweighted: exact while every thread kept all its calls,
    // which holds for every multi-client workload (see kSamplesPerOp).
    stats.durations.AppendTo(&totals.samples);
  }
  return totals;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(threads_mu_);
  for (const auto& state : threads_) {
    for (const SpanRecord& span : state->spans) {
      std::fprintf(out,
                   "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%llu,\"end_ns\":%llu,\"txn\":%llu,"
                   "\"thread\":%u,\"bytes\":%llu}\n",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   OpName(span.op),
                   static_cast<unsigned long long>(span.start_ns - origin_ns_),
                   static_cast<unsigned long long>(span.end_ns - origin_ns_),
                   static_cast<unsigned long long>(span.txn), span.thread,
                   static_cast<unsigned long long>(span.bytes));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace rvmbench
