// rvmbench: host-time end-to-end benchmark of the RVM library on the real
// environment (POSIX files, real fsync). See README.md in this directory
// for the workloads, the metrics and how to run it.
//
// Run shape. The parent process only orchestrates: for each round it forks
// a workload child, which sets up a fresh log and regions, warms up, runs
// the measured window, leaves a fixed amount of log behind, records a CRC-32
// of every region and calls _exit without Terminate — a process crash with
// the OS page cache intact. The parent keeps a byte copy of the crashed
// files and forks a recovery child, which restores the copy, times
// Initialize + Map, and checks every region against the CRCs: each acked
// flush commit, and everything before the final Flush(), must be there.
//
// End-to-end metrics come from untraced rounds: throughput, median latency,
// CPU, recovery and set-up time from the run's best one-second slices,
// recoveries or set-ups; tail latency and memory as medians over rounds.
// Per-layer metrics come from one extra traced round, in which rvmbench
// spans its RvmInstance calls and TimingEnv spans the library's file I/O
// (tracer.h, timing_env.h).
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/rvmbench/timing_env.h"
#include "bench/rvmbench/tracer.h"
#include "bench/rvmbench/workloads.h"
#include "src/rvm/rvm.h"
#include "src/util/crc32.h"

namespace rvmbench {
namespace {

namespace fs = std::filesystem;

// Named measurements of one process or round.
using Report = std::map<std::string, double>;

struct MetricDef {
  const char* name;
  const char* unit;
};

// What a user of the library sees, measured with tracing off.
constexpr MetricDef kEndToEnd[] = {
    {"txns_per_s", "txn/s"},
    {"txn_p50_us", "us"},
    {"txn_p99_us", "us"},
    {"cpu_us_per_txn", "us"},
    {"recovery_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics from the traced round. "per_txn" divides by the
// window's committed transactions; "per_recovery" metrics are from the
// recovery child.
constexpr MetricDef kPerLayer[] = {
    {"os.log.sync.per_txn", "count/txn"},
    {"os.log.sync.p50_us", "us"},
    {"os.log.sync.p99_us", "us"},
    {"os.log.write.per_txn", "count/txn"},
    {"os.log.write_bytes.per_txn", "bytes/txn"},
    {"os.seg.write_bytes.per_txn", "bytes/txn"},
    {"os.seg.sync.per_txn", "count/txn"},
    {"os.chk.write_bytes.per_txn", "bytes/txn"},
    {"os.chk.read_bytes.per_txn", "bytes/txn"},
    {"os.write_amp", "ratio"},
    {"os.busy_share", "frac"},
    {"rvm.busy_share", "frac"},
    {"rvm.BeginTransaction.p50_us", "us"},
    {"rvm.SetRange.p50_us", "us"},
    {"rvm.SetRange.p99_us", "us"},
    {"rvm.SetRange.calls_per_txn", "count/txn"},
    {"rvm.EndTransaction.p50_us", "us"},
    {"rvm.EndTransaction.p99_us", "us"},
    {"rvm.EndTransaction.self_us", "us"},
    {"rvm.Flush.p50_us", "us"},
    {"rvm.Flush.p99_us", "us"},
    {"rvm.stats.log_forces.per_txn", "count/txn"},
    {"rvm.stats.bytes_logged.per_txn", "bytes/txn"},
    {"rvm.stats.group_batch.avg", "txn"},
    {"rvm.stats.cross_shard.per_ktxn", "count/ktxn"},
    {"rvm.stats.intra_saved.frac", "frac"},
    {"rvm.stats.inter_saved.frac", "frac"},
    {"rvm.stats.incremental_steps.per_ktxn", "count/ktxn"},
    {"rvm.stats.epoch_truncation_bytes.per_txn", "bytes/txn"},
    {"rvm.stats.retries", "count"},
    {"rvm.Initialize.ms", "ms"},
    {"rvm.Initialize.self_ms", "ms"},
    {"rvm.Map.ms", "ms"},
    {"os.log.read_bytes.per_recovery", "bytes"},
    {"os.seg.read_bytes.per_recovery", "bytes"},
    {"os.seg.write_bytes.per_recovery", "bytes"},
    {"rvm.stats.recovery_records.per_recovery", "count"},
    {"rvm.stats.recovery_bytes.per_recovery", "bytes"},
    {"trace_overhead", "frac"},
};

// The measured window is cut into slices of this length. A shared host's
// speed varies with its other tenants' load on a scale of seconds to
// minutes, so a run reports its best slices rather than their mean
// (README.md, "Noise"). A slice spans several truncation cycles of every
// steady workload, so the best slices are not simply those that missed one.
constexpr uint64_t kSliceNanos = 1'000'000'000;
// Throughput is the (100 - kBestQuantile)th percentile of the slices'
// rates; median latency and CPU cost are the kBestQuantile-th percentile of
// theirs, and recovery and set-up time that of all recoveries or set-ups.
constexpr double kBestQuantile = 10;
// Latency samples kept per client per slice: every transaction except on
// coda and restart, which keep a uniform sample.
constexpr size_t kSliceSamples = 1 << 14;
// Slices recorded for a window that runs a fixed number of transactions
// (restart's load), whose length is not known in advance.
constexpr size_t kMaxCountedSlices = 32;
// A run times at least this many set-ups and recoveries, split evenly over
// its rounds. A round also recovers again while less than a quarter of its
// window has gone to recovering (restores included), at most kMaxRecoveries
// times.
constexpr int kSamplesPerRun = 9;
constexpr int kMaxRecoveries = 20;
// A child that has not finished by then is killed by SIGALRM, which fails
// the run instead of hanging it.
constexpr unsigned kChildTimeoutSeconds = 150;

struct Config {
  std::vector<const WorkloadSpec*> workloads;
  bool single = false;  // one workload, printed in the one-workload format
  uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  bool smoke = false;
  std::string dir = "rvmbench-work";
  std::string json_path;
};

// What one round's children need to know.
struct RoundPlan {
  std::string dir;
  std::string spans_path;  // traced rounds only
  uint64_t seed = 0;
  bool traced = false;
  double warmup_s = 0;
  double window_s = 0;
  int samples = 0;  // set-ups, and at least as many recoveries
  double recovery_s = 0;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Seconds(uint64_t nanos) { return static_cast<double>(nanos) / 1e9; }

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

double CpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Ends a child process on a setup error (nothing to measure without it).
void CheckOrDie(const rvm::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "rvmbench: %s: %s\n", what,
                 status.ToString().c_str());
    _exit(1);
  }
}

// --- child processes -------------------------------------------------------

std::string Serialize(const Report& report) {
  std::string out;
  char buf[64];
  for (const auto& [name, value] : report) {
    std::snprintf(buf, sizeof(buf), " %.17g\n", value);
    out += name;
    out += buf;
  }
  return out;
}

Report Parse(const std::string& text) {
  Report report;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t end = text.find('\n', pos);
    const std::string line = text.substr(pos, end - pos);
    pos = end == std::string::npos ? text.size() : end + 1;
    const size_t space = line.rfind(' ');
    if (space != std::string::npos) {
      report[line.substr(0, space)] = std::strtod(line.c_str() + space + 1,
                                                  nullptr);
    }
  }
  return report;
}

struct ChildOutcome {
  bool ok = false;
  Report report;
  double max_rss_mb = 0;
};

// Runs `body` in a forked child that sends its report through a pipe and
// ends with _exit: no destructor runs, which for the workload child is the
// crash. The caller must have no threads of its own (fork copies only the
// calling thread).
ChildOutcome RunInChild(const std::function<Report()>& body) {
  ChildOutcome outcome;
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("rvmbench: pipe");
    return outcome;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("rvmbench: fork");
    close(fds[0]);
    close(fds[1]);
    return outcome;
  }
  if (pid == 0) {
    close(fds[0]);
    // Die with the parent, so an interrupted run leaves no process behind.
    if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() == 1) {
      _exit(1);
    }
    alarm(kChildTimeoutSeconds);
    const std::string text = Serialize(body());
    size_t done = 0;
    while (done < text.size()) {
      const ssize_t n = write(fds[1], text.data() + done, text.size() - done);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        _exit(1);
      }
      done += static_cast<size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      break;
    }
    text.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  struct rusage usage {};
  pid_t waited = 0;
  do {
    waited = wait4(pid, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  outcome.ok = waited == pid && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  outcome.report = Parse(text);
  outcome.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return outcome;
}

std::string LogPath(const std::string& dir) { return dir + "/rvm.log"; }

rvm::RvmOptions OptionsFor(const WorkloadSpec& spec, const std::string& dir,
                           rvm::Env* env) {
  rvm::RvmOptions options;
  options.env = env;
  options.log_path = LogPath(dir);
  options.log_shards = spec.log_shards;
  options.runtime.truncation_threshold = spec.truncation_threshold;
  return options;
}

// Maps every region of `spec`, at `at` when given (caller-owned memory) or
// wherever RVM allocates.
std::vector<uint8_t*> MapRegions(rvm::RvmInstance& rvm,
                                 const WorkloadSpec& spec,
                                 const std::string& dir, Tracer* tracer,
                                 const std::vector<uint8_t*>& at = {}) {
  std::vector<uint8_t*> bases;
  for (size_t i = 0; i < spec.region_bytes.size(); ++i) {
    rvm::RegionDescriptor region;
    region.segment_path = dir + "/seg" + std::to_string(i);
    region.length = spec.region_bytes[i];
    region.address = at.empty() ? nullptr : at[i];
    Tracer::Scope scope(tracer, Op::kMap);
    CheckOrDie(rvm.Map(region), "Map");
    bases.push_back(static_cast<uint8_t*>(region.address));
  }
  return bases;
}

// One client's share of one slice of the measured window.
struct Slice {
  uint64_t txns = 0;
  Reservoir latency_us;
};

struct ClientSlot {
  std::unique_ptr<Client> client;
  std::vector<Slice> slices;  // of the measured window
  uint64_t txns = 0;
  uint64_t failed = 0;
};

struct PhaseResult {
  uint64_t txns = 0;
  uint64_t failed = 0;
  double seconds = 0;
};

// Reads the process's CPU time at every slice boundary of a window, from a
// thread that sleeps in between.
class SliceCpuClock {
 public:
  explicit SliceCpuClock(uint64_t start_ns)
      : start_ns_(start_ns), cpu_s_{CpuSeconds()}, thread_([this] { Run(); }) {}
  ~SliceCpuClock() { Stop(); }
  SliceCpuClock(const SliceCpuClock&) = delete;
  SliceCpuClock& operator=(const SliceCpuClock&) = delete;

  // Stops the clock; returns the CPU seconds read at boundaries 0, 1, ...
  std::vector<double> Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
    return cpu_s_;
  }

 private:
  void Run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (uint64_t k = 1;; ++k) {
      const std::chrono::steady_clock::time_point boundary(
          std::chrono::nanoseconds(start_ns_ + k * kSliceNanos));
      if (cv_.wait_until(lock, boundary, [this] { return stop_; })) {
        return;
      }
      cpu_s_.push_back(CpuSeconds());
    }
  }

  const uint64_t start_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> cpu_s_;  // boundary 0 is read before the thread starts
  std::thread thread_;
};

// Runs every client — on its own thread when there are several — until
// `seconds` have passed or, with seconds == 0, for `txns_per_client` each.
// A client stops at its first failed call. With `record`, each transaction
// is counted, and its latency (Begin to End return, plus any Flush() due)
// sampled, in the slice it ended in.
PhaseResult RunPhase(std::vector<ClientSlot>& clients, Api& api,
                     double seconds, uint64_t txns_per_client, bool record) {
  const uint64_t start_ns = NowNanos();
  const uint64_t deadline_ns =
      start_ns + static_cast<uint64_t>(seconds * 1e9);
  auto run = [&](ClientSlot& slot) {
    for (uint64_t i = 0; seconds > 0 || i < txns_per_client; ++i) {
      const uint64_t t0 = NowNanos();
      const rvm::Status status = slot.client->RunTxn(api);
      const uint64_t t1 = NowNanos();
      if (!status.ok()) {
        ++slot.failed;
        std::fprintf(stderr, "rvmbench: transaction failed: %s\n",
                     status.ToString().c_str());
        return;
      }
      ++slot.txns;
      const uint64_t slice = (t1 - start_ns) / kSliceNanos;
      if (record && slice < slot.slices.size()) {
        ++slot.slices[slice].txns;
        slot.slices[slice].latency_us.Add(static_cast<double>(t1 - t0) /
                                          1000.0);
      }
      if (seconds > 0 && t1 >= deadline_ns) {
        return;
      }
    }
  };
  std::vector<std::pair<uint64_t, uint64_t>> before;
  for (const ClientSlot& slot : clients) {
    before.emplace_back(slot.txns, slot.failed);
  }
  if (clients.size() == 1) {
    run(clients[0]);
  } else {
    std::vector<std::thread> threads;
    for (ClientSlot& slot : clients) {
      threads.emplace_back(run, std::ref(slot));
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  PhaseResult result;
  result.seconds = Seconds(NowNanos() - start_ns);
  for (size_t c = 0; c < clients.size(); ++c) {
    result.txns += clients[c].txns - before[c].first;
    result.failed += clients[c].failed - before[c].second;
  }
  return result;
}

uint32_t RegionCrc(const uint8_t* base, uint64_t length) {
  return rvm::Crc32(std::span<const uint8_t>(base, length));
}

// Per-layer metrics of the traced window (plus the Flush that ends it).
void AddWindowLayerMetrics(Report& r, const Tracer& tracer,
                           const rvm::RvmStatistics& before,
                           const rvm::RvmStatistics& after, double txns,
                           double traced_s, uint32_t clients) {
  auto delta = [&](rvm::StatCounter rvm::RvmStatistics::*field) {
    return static_cast<double>((after.*field).load() - (before.*field).load());
  };
  const OpTotals log_sync = tracer.Totals(Op::kLogSync);
  const OpTotals log_write = tracer.Totals(Op::kLogWrite);
  const OpTotals seg_write = tracer.Totals(Op::kSegWrite);
  const OpTotals chk_write = tracer.Totals(Op::kChkWrite);
  const OpTotals begin = tracer.Totals(Op::kBeginTransaction);
  const OpTotals set_range = tracer.Totals(Op::kSetRange);
  const OpTotals end = tracer.Totals(Op::kEndTransaction);
  const OpTotals flush = tracer.Totals(Op::kFlush);

  r["os.log.sync.per_txn"] = Ratio(log_sync.count, txns);
  r["os.log.sync.p50_us"] = log_sync.P(50);
  r["os.log.sync.p99_us"] = log_sync.P(99);
  r["os.log.write.per_txn"] = Ratio(log_write.count, txns);
  r["os.log.write_bytes.per_txn"] = Ratio(log_write.bytes, txns);
  r["os.seg.write_bytes.per_txn"] = Ratio(seg_write.bytes, txns);
  r["os.seg.sync.per_txn"] = Ratio(tracer.Totals(Op::kSegSync).count, txns);
  r["os.chk.write_bytes.per_txn"] = Ratio(chk_write.bytes, txns);
  r["os.chk.read_bytes.per_txn"] =
      Ratio(tracer.Totals(Op::kChkRead).bytes, txns);
  r["os.write_amp"] =
      Ratio(static_cast<double>(log_write.bytes + seg_write.bytes +
                                chk_write.bytes),
            delta(&rvm::RvmStatistics::bytes_requested));

  double os_us = 0;
  for (Op op : {Op::kLogRead, Op::kLogWrite, Op::kLogSync, Op::kSegRead,
                Op::kSegWrite, Op::kSegSync, Op::kChkRead, Op::kChkWrite,
                Op::kChkSync}) {
    os_us += tracer.Totals(op).total_us;
  }
  const double thread_us = traced_s * 1e6 * clients;
  r["os.busy_share"] = Ratio(os_us, thread_us);
  r["rvm.busy_share"] = Ratio(
      begin.total_us + set_range.total_us + end.total_us + flush.total_us,
      thread_us);

  r["rvm.BeginTransaction.p50_us"] = begin.P(50);
  r["rvm.SetRange.p50_us"] = set_range.P(50);
  r["rvm.SetRange.p99_us"] = set_range.P(99);
  r["rvm.SetRange.calls_per_txn"] = Ratio(set_range.count, txns);
  r["rvm.EndTransaction.p50_us"] = end.P(50);
  r["rvm.EndTransaction.p99_us"] = end.P(99);
  r["rvm.EndTransaction.self_us"] = Ratio(end.self_us, end.count);
  r["rvm.Flush.p50_us"] = flush.P(50);
  r["rvm.Flush.p99_us"] = flush.P(99);

  using S = rvm::RvmStatistics;
  const double forces = delta(&S::log_forces);
  const double logged = delta(&S::bytes_logged);
  const double intra = delta(&S::intra_saved_bytes);
  const double inter = delta(&S::inter_saved_bytes);
  r["rvm.stats.log_forces.per_txn"] = Ratio(forces, txns);
  r["rvm.stats.bytes_logged.per_txn"] = Ratio(logged, txns);
  r["rvm.stats.group_batch.avg"] = Ratio(delta(&S::group_commit_batched_txns),
                                         delta(&S::group_commit_batches));
  r["rvm.stats.cross_shard.per_ktxn"] =
      Ratio(1000 * delta(&S::cross_shard_commits_started), txns);
  r["rvm.stats.intra_saved.frac"] = Ratio(intra, logged + intra + inter);
  r["rvm.stats.inter_saved.frac"] = Ratio(inter, logged + intra + inter);
  r["rvm.stats.incremental_steps.per_ktxn"] =
      Ratio(1000 * delta(&S::incremental_steps), txns);
  r["rvm.stats.epoch_truncation_bytes.per_txn"] =
      Ratio(delta(&S::truncation_bytes_applied), txns);
  r["rvm.stats.retries"] = delta(&S::io_retries) + delta(&S::log_full_retries);

  // Seed-independent invariants: the library cannot force or log more than
  // the disk saw.
  r["invariant_violations"] =
      (static_cast<double>(log_sync.count) < forces ? 1 : 0) +
      (static_cast<double>(log_write.bytes) < logged ? 1 : 0);
}

// The workload child: set-up, warm-up, measured window, a fixed tail, the
// region CRCs — then the caller's _exit is the crash.
Report RunWorkloadChild(const WorkloadSpec& spec, const RoundPlan& plan) {
  Report r;
  Tracer tracer;
  Tracer* traced = plan.traced ? &tracer : nullptr;
  TimingEnv timing_env(rvm::GetRealEnv(), LogPath(plan.dir), &tracer);
  rvm::Env* env = plan.traced ? &timing_env : rvm::GetRealEnv();
  const rvm::RvmOptions options = OptionsFor(spec, plan.dir, env);

  // The benchmark owns the region memory, so the tail's second instance can
  // map the regions where the clients' pointers already point.
  std::vector<uint8_t*> bases(spec.region_bytes.size());
  // A fresh log and instance, with every region mapped.
  auto open_fresh = [&] {
    CheckOrDie(rvm::RvmInstance::CreateLog(env, options.log_path,
                                           spec.log_bytes, /*overwrite=*/true,
                                           spec.log_shards),
               "CreateLog");
    auto initialized = rvm::RvmInstance::Initialize(options);
    CheckOrDie(initialized.status(), "Initialize");
    MapRegions(**initialized, spec, plan.dir, nullptr, bases);
    return std::move(*initialized);
  };

  // Set-up is timed plan.samples times, each into fresh files and fresh
  // memory; the last instance is the one the round runs on.
  std::unique_ptr<rvm::RvmInstance> rvm;
  for (int k = 0; k < plan.samples; ++k) {
    if (rvm != nullptr) {
      CheckOrDie(rvm->Terminate(), "Terminate");
      rvm.reset();
      for (uint8_t* base : bases) {
        std::free(base);
      }
      fs::remove_all(plan.dir);
      fs::create_directories(plan.dir);
    }
    for (size_t i = 0; i < bases.size(); ++i) {
      bases[i] = static_cast<uint8_t*>(
          std::aligned_alloc(4096, spec.region_bytes[i]));
      if (bases[i] == nullptr) {
        CheckOrDie(rvm::Internal("out of memory"), "region allocation");
      }
    }
    const uint64_t setup_start = NowNanos();
    rvm = open_fresh();
    r["setup." + std::to_string(k) + ".s"] = Seconds(NowNanos() - setup_start);
  }
  r["setups"] = plan.samples;

  Api api(rvm.get(), traced);
  const size_t slices_needed =
      spec.load_txns > 0
          ? kMaxCountedSlices
          : static_cast<size_t>(plan.window_s * 1e9) / kSliceNanos + 1;
  std::vector<ClientSlot> clients(spec.clients);
  for (uint32_t c = 0; c < spec.clients; ++c) {
    clients[c].client = spec.make_client(c, bases, Mix(plan.seed, c));
    for (size_t s = 0; s < slices_needed; ++s) {
      clients[c].slices.push_back(
          {0, Reservoir(kSliceSamples,
                        Mix(plan.seed, (c + 1) * slices_needed + s))});
    }
  }
  const rvm::RvmStatistics setup_stats = rvm->statistics().Snapshot();
  uint64_t failed = 0;
  auto note = [&](const rvm::Status& status, const char* what) {
    if (!status.ok()) {
      ++failed;
      std::fprintf(stderr, "rvmbench: %s: %s\n", what,
                   status.ToString().c_str());
    }
  };

  if (spec.load_txns == 0) {
    failed += RunPhase(clients, api, plan.warmup_s, 0, false).failed;
  }
  const rvm::RvmStatistics before = rvm->statistics().Snapshot();
  tracer.SetActive(plan.traced);
  const uint64_t traced_start = NowNanos();
  SliceCpuClock cpu_clock(traced_start);
  const PhaseResult window =
      spec.load_txns > 0
          ? RunPhase(clients, api, 0, spec.load_txns, true)
          : RunPhase(clients, api, plan.window_s, 0, true);
  const double window_cpu_end = CpuSeconds();
  const std::vector<double> cpu_at = cpu_clock.Stop();
  note(api.Flush(), "Flush");
  const double traced_s = Seconds(NowNanos() - traced_start);
  tracer.SetActive(false);
  const rvm::RvmStatistics after = rvm->statistics().Snapshot();
  failed += window.failed;

  uint64_t cross_shard_started = after.cross_shard_commits_started.load() -
                                 setup_stats.cross_shard_commits_started.load();
  if (spec.tail_txns > 0) {
    // Where in the circular log the window stopped changes how much log
    // recovery reads. So that every round's crash leaves the same log
    // behind, the window's work goes to the segments and the tail runs on
    // a fresh log.
    note(rvm->Truncate(), "Truncate");
    note(rvm->Terminate(), "Terminate");
    rvm.reset();
    rvm = open_fresh();
    Api tail_api(rvm.get(), nullptr);
    failed += RunPhase(clients, tail_api, 0, spec.tail_txns, false).failed;
    note(rvm->Flush(), "Flush");
    cross_shard_started +=
        rvm->statistics().cross_shard_commits_started.load();
  }

  // Per-slice results, over the slices every client ran through; a window
  // shorter than one slice counts as one.
  std::vector<float> window_latencies;
  auto add_slice = [&](size_t s, double seconds, double cpu_s) {
    uint64_t n = 0;
    std::vector<float> latencies;
    for (const ClientSlot& slot : clients) {
      n += slot.slices[s].txns;
      slot.slices[s].latency_us.AppendTo(&latencies);
    }
    const std::string key = "slice." + std::to_string(s) + ".";
    r[key + "rate"] = Ratio(static_cast<double>(n), seconds);
    r[key + "p50"] = Percentile(latencies, 50);
    r[key + "cpu"] = Ratio(cpu_s * 1e6, static_cast<double>(n));
    window_latencies.insert(window_latencies.end(), latencies.begin(),
                            latencies.end());
  };
  const size_t slices = std::min<size_t>(
      {static_cast<size_t>(window.seconds * 1e9) / kSliceNanos,
       cpu_at.size() - 1, slices_needed});
  for (size_t s = 0; s < slices; ++s) {
    add_slice(s, Seconds(kSliceNanos), cpu_at[s + 1] - cpu_at[s]);
  }
  if (slices == 0) {
    add_slice(0, window.seconds, window_cpu_end - cpu_at[0]);
  }
  r["slices"] = static_cast<double>(std::max<size_t>(slices, 1));

  uint64_t cross_shard_issued = 0;
  for (const ClientSlot& slot : clients) {
    cross_shard_issued += slot.client->cross_shard_txns();
  }
  const double txns = static_cast<double>(window.txns);
  r["attempted"] = static_cast<double>(window.txns + window.failed);
  r["failed"] = static_cast<double>(failed);
  r["window_txns_per_s"] = Ratio(txns, window.seconds);
  // Tail latency comes from events such as truncation bursts, which a single
  // slice may miss, so it is taken over the whole window.
  r["window_p99_us"] = Percentile(window_latencies, 99);
  r["cross_shard_issued"] = static_cast<double>(cross_shard_issued);
  r["cross_shard_started"] = static_cast<double>(cross_shard_started);
  for (size_t i = 0; i < bases.size(); ++i) {
    r["crc." + std::to_string(i)] = RegionCrc(bases[i], spec.region_bytes[i]);
  }
  if (plan.traced) {
    AddWindowLayerMetrics(r, tracer, before, after, txns, traced_s,
                          spec.clients);
    if (!tracer.WriteJsonl(plan.spans_path)) {
      std::fprintf(stderr, "rvmbench: cannot write %s\n",
                   plan.spans_path.c_str());
    }
  }
  return r;
}

// Replaces `to` with a copy of `from` and syncs it: the crashed files were
// mostly durable, and a recovery timed over a dirty copy would pay for
// writing the whole copy back in its first fsync.
void RestoreCopy(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  for (const fs::directory_entry& entry : fs::directory_iterator(to)) {
    auto file = rvm::GetRealEnv()->Open(entry.path().string(),
                                        rvm::OpenMode::kReadOnly);
    CheckOrDie(file.status(), "open restored copy");
    CheckOrDie((*file)->Sync(), "sync restored copy");
  }
}

// The recovery child: restores the crashed files (untimed), then times
// Initialize + Map and checks every region's CRC, several times.
Report RunRecoveryChild(const WorkloadSpec& spec, const RoundPlan& plan,
                        const std::string& crashed,
                        const std::vector<uint32_t>& crcs) {
  Tracer tracer;
  Tracer* traced = plan.traced ? &tracer : nullptr;
  TimingEnv timing_env(rvm::GetRealEnv(), LogPath(plan.dir), &tracer);
  const rvm::RvmOptions options = OptionsFor(
      spec, plan.dir, plan.traced ? &timing_env : rvm::GetRealEnv());

  std::vector<double> ms;
  const uint64_t child_start = NowNanos();
  uint64_t mismatches = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;
  while (static_cast<int>(ms.size()) < plan.samples ||
         (Seconds(NowNanos() - child_start) < plan.recovery_s &&
          static_cast<int>(ms.size()) < kMaxRecoveries)) {
    RestoreCopy(crashed, plan.dir);
    tracer.SetActive(plan.traced);
    const uint64_t start = NowNanos();
    std::unique_ptr<rvm::RvmInstance> rvm;
    {
      Tracer::Scope scope(traced, Op::kInitialize);
      auto initialized = rvm::RvmInstance::Initialize(options);
      CheckOrDie(initialized.status(), "recovery Initialize");
      rvm = std::move(*initialized);
    }
    const std::vector<uint8_t*> bases =
        MapRegions(*rvm, spec, plan.dir, traced);
    const uint64_t elapsed = NowNanos() - start;
    tracer.SetActive(false);
    ms.push_back(static_cast<double>(elapsed) / 1e6);
    records += rvm->statistics().recovery_records_applied.load();
    bytes += rvm->statistics().recovery_bytes_applied.load();
    for (size_t i = 0; i < bases.size(); ++i) {
      if (RegionCrc(bases[i], spec.region_bytes[i]) != crcs[i]) {
        ++mismatches;
      }
    }
  }

  Report r;
  const double n = static_cast<double>(ms.size());
  r["median_recovery_ms"] = Median(ms);
  for (size_t i = 0; i < ms.size(); ++i) {
    r["recovery." + std::to_string(i) + ".ms"] = ms[i];
  }
  r["recoveries"] = n;
  r["crc_mismatches"] = static_cast<double>(mismatches);
  if (plan.traced) {
    const OpTotals init = tracer.Totals(Op::kInitialize);
    r["rvm.Initialize.ms"] = init.P(50) / 1000;
    r["rvm.Initialize.self_ms"] = Ratio(init.self_us, init.count) / 1000;
    r["rvm.Map.ms"] = tracer.Totals(Op::kMap).total_us / n / 1000;
    r["os.log.read_bytes.per_recovery"] =
        static_cast<double>(tracer.Totals(Op::kLogRead).bytes) / n;
    r["os.seg.read_bytes.per_recovery"] =
        static_cast<double>(tracer.Totals(Op::kSegRead).bytes) / n;
    r["os.seg.write_bytes.per_recovery"] =
        static_cast<double>(tracer.Totals(Op::kSegWrite).bytes) / n;
    r["rvm.stats.recovery_records.per_recovery"] =
        static_cast<double>(records) / n;
    r["rvm.stats.recovery_bytes.per_recovery"] =
        static_cast<double>(bytes) / n;
  }
  return r;
}

// --- rounds and results ----------------------------------------------------

struct RoundResult {
  Report report;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "rvmbench: %s\n", message.c_str());
  std::exit(1);
}

RoundResult RunRound(const WorkloadSpec& spec, size_t workload_index,
                     const Config& config, int round, bool traced) {
  RoundPlan plan;
  plan.dir = config.dir + "/" + spec.name;
  plan.spans_path = config.dir + "/spans-" + spec.name + ".jsonl";
  plan.seed = Mix(Mix(config.seed, workload_index), static_cast<uint64_t>(round));
  plan.traced = traced;
  plan.window_s = config.seconds / spec.rounds;
  plan.warmup_s = plan.window_s / 2;
  plan.samples =
      config.smoke ? 1 : (kSamplesPerRun + spec.rounds - 1) / spec.rounds;
  plan.recovery_s = plan.window_s / 4;
  const std::string crashed = plan.dir + ".crashed";
  fs::remove_all(plan.dir);
  fs::remove_all(crashed);
  fs::create_directories(plan.dir);

  const std::string label = std::string(spec.name) + " round " +
                            std::to_string(round + 1) +
                            (traced ? " (traced)" : "");
  ChildOutcome work =
      RunInChild([&] { return RunWorkloadChild(spec, plan); });
  if (!work.ok) {
    Fatal(label + ": workload process failed");
  }
  fs::copy(plan.dir, crashed, fs::copy_options::recursive);
  std::vector<uint32_t> crcs;
  for (size_t i = 0; i < spec.region_bytes.size(); ++i) {
    crcs.push_back(
        static_cast<uint32_t>(work.report["crc." + std::to_string(i)]));
  }
  ChildOutcome recovery = RunInChild(
      [&] { return RunRecoveryChild(spec, plan, crashed, crcs); });
  if (!recovery.ok) {
    Fatal(label + ": recovery process failed");
  }
  fs::remove_all(plan.dir);
  fs::remove_all(crashed);

  RoundResult result;
  result.report = work.report;
  result.report.insert(recovery.report.begin(), recovery.report.end());
  result.report["peak_rss_mb"] =
      std::max(work.max_rss_mb, recovery.max_rss_mb);
  Report& r = result.report;
  result.attempted = static_cast<uint64_t>(r["attempted"]);
  const bool crc_ok = r["crc_mismatches"] == 0;
  const bool cross_shard_ok = r["cross_shard_issued"] == r["cross_shard_started"];
  const bool invariants_ok = r["invariant_violations"] == 0;
  result.failed = static_cast<uint64_t>(r["failed"]);
  result.correct = result.failed == 0 && crc_ok && cross_shard_ok && invariants_ok;
  if (!crc_ok || !cross_shard_ok || !invariants_ok) {
    // Lost or misrouted commits fail the whole round.
    result.failed = result.attempted;
  }
  std::fprintf(stderr,
               "%-22s %10.0f txn/s  recovery %8.2f ms (median of %.0f)  "
               "%s%s%s\n",
               label.c_str(), r["window_txns_per_s"], r["median_recovery_ms"],
               r["recoveries"], crc_ok ? "crc ok" : "CRC MISMATCH",
               cross_shard_ok ? "" : "  CROSS-SHARD COUNT MISMATCH",
               invariants_ok ? "" : "  INVARIANT VIOLATED");
  return result;
}

struct WorkloadRuns {
  std::vector<RoundResult> untraced;
  std::optional<RoundResult> traced;

  bool correct() const {
    bool ok = !traced || traced->correct;
    for (const RoundResult& round : untraced) {
      ok = ok && round.correct;
    }
    return ok;
  }
  uint64_t Sum(uint64_t RoundResult::*field) const {
    uint64_t total = traced ? (*traced).*field : 0;
    for (const RoundResult& round : untraced) {
      total += round.*field;
    }
    return total;
  }
  double MedianOf(const char* name) const {
    std::vector<double> values;
    for (const RoundResult& round : untraced) {
      values.push_back(round.report.at(name));
    }
    return Median(values);
  }
  // Every untraced round's "<item>.<i>.<field>" values, for i below the
  // round's `count`: per-slice or per-recovery results.
  std::vector<double> Pooled(const char* count, const char* item,
                             const char* field) const {
    std::vector<double> values;
    for (const RoundResult& round : untraced) {
      const int n = static_cast<int>(round.report.at(count));
      for (int i = 0; i < n; ++i) {
        values.push_back(round.report.at(std::string(item) + "." +
                                         std::to_string(i) + "." + field));
      }
    }
    return values;
  }
  // Throughput, median latency, CPU, recovery and set-up time are the run's
  // best slices, recoveries or set-ups; tail latency and memory the median
  // over rounds.
  double EndToEnd(std::string_view name) const {
    if (name == "txns_per_s") {
      return Percentile(Pooled("slices", "slice", "rate"), 100 - kBestQuantile);
    }
    if (name == "txn_p50_us") {
      return Percentile(Pooled("slices", "slice", "p50"), kBestQuantile);
    }
    if (name == "txn_p99_us") {
      return MedianOf("window_p99_us");
    }
    if (name == "cpu_us_per_txn") {
      return Percentile(Pooled("slices", "slice", "cpu"), kBestQuantile);
    }
    if (name == "recovery_ms") {
      return Percentile(Pooled("recoveries", "recovery", "ms"), kBestQuantile);
    }
    if (name == "setup_s") {
      return Percentile(Pooled("setups", "setup", "s"), kBestQuantile);
    }
    return MedianOf(std::string(name).c_str());
  }
};

std::string FormatNumber(double value) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;
  return std::string(buf, end);
}

// The metrics a run prints: the end-to-end set, the per-layer set, or both.
std::vector<std::pair<const MetricDef*, double>> Metrics(
    const WorkloadRuns& runs, bool end_to_end, bool per_layer) {
  std::vector<std::pair<const MetricDef*, double>> metrics;
  if (end_to_end) {
    for (const MetricDef& def : kEndToEnd) {
      metrics.emplace_back(&def, runs.EndToEnd(def.name));
    }
  }
  if (per_layer) {
    const Report& traced = runs.traced->report;
    for (const MetricDef& def : kPerLayer) {
      metrics.emplace_back(
          &def, std::string_view(def.name) == "trace_overhead"
                    ? 1 - Ratio(traced.at("window_txns_per_s"),
                                runs.MedianOf("window_txns_per_s"))
                    : traced.at(def.name));
    }
  }
  return metrics;
}

// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
std::string ResultJson(const WorkloadRuns& runs, bool end_to_end,
                       bool per_layer) {
  std::string metrics;
  for (const auto& [def, value] : Metrics(runs, end_to_end, per_layer)) {
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + std::string(def->name) + "\": {\"value\": " +
               FormatNumber(value) + ", \"unit\": \"" + def->unit + "\"}";
  }
  return std::string("{\"correct\": ") + (runs.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(runs.Sum(&RoundResult::attempted)) +
         ", \"failed\": " + std::to_string(runs.Sum(&RoundResult::failed)) +
         ", \"metrics\": {" + metrics + "}}";
}

void PrintTable(const char* name, const WorkloadRuns& runs, bool end_to_end,
                bool per_layer) {
  std::printf("\n== %s (%zu untraced round%s%s)\n", name, runs.untraced.size(),
              runs.untraced.size() == 1 ? "" : "s",
              runs.traced ? " + 1 traced" : "");
  for (const auto& [def, value] : Metrics(runs, end_to_end, per_layer)) {
    std::printf("  %-42s %14.3f %s\n", def->name, value, def->unit);
  }
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: rvmbench [--workload=NAME|all] [--seed=N] [--seconds=S]\n"
      "                [--trace=0|1] [--dir=PATH] [--json=FILE] [--smoke]\n"
      "  workloads: tpca group coda restart (default: all, interleaved)\n"
      "  --seconds   measured time over a workload's untraced rounds "
      "(default 12)\n"
      "  --trace=1   add one traced round per workload; with one workload\n"
      "              only its per-layer metrics are printed, with --trace=0\n"
      "              only its end-to-end ones (default: 1 for all, else 0)\n"
      "  --smoke     every workload briefly, one round, traced\n");
}

bool ParseArgs(int argc, char** argv, Config* config) {
  std::string workload = "all";
  std::optional<bool> trace;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (arg != "--smoke" && arg != "--help" && i + 1 < argc) {
      value = argv[++i];
    }
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = value == "1";
    } else if (arg == "--dir") {
      config->dir = value;
    } else if (arg == "--json") {
      config->json_path = value;
    } else if (arg == "--smoke") {
      config->smoke = true;
    } else {
      return false;
    }
  }
  if (config->seconds <= 0) {
    return false;
  }
  if (workload == "all") {
    for (const WorkloadSpec& spec : AllWorkloads()) {
      config->workloads.push_back(&spec);
    }
  } else if (const WorkloadSpec* spec = FindWorkload(workload)) {
    config->workloads.push_back(spec);
    config->single = true;
  } else {
    return false;
  }
  config->trace = trace.value_or(!config->single);
  if (config->smoke) {
    config->seconds = 0.3;
    config->trace = true;
  }
  return true;
}

int Main(int argc, char** argv) {
  Config config;
  if (!ParseArgs(argc, argv, &config)) {
    Usage();
    return 2;
  }
  // Smoke runs do one round and shrink the fixed-size phases.
  std::vector<WorkloadSpec> specs;
  int rounds = 0;
  for (const WorkloadSpec* spec : config.workloads) {
    specs.push_back(*spec);
    if (config.smoke) {
      specs.back().rounds = 1;
      specs.back().load_txns = std::min<uint64_t>(spec->load_txns, 2000);
      specs.back().tail_txns = std::min<uint64_t>(spec->tail_txns, 100);
    }
    rounds = std::max(rounds, specs.back().rounds);
  }
  fs::create_directories(config.dir);

  // Rounds interleave across workloads (A B C, A B C, ...) so machine drift
  // spreads evenly; the traced rounds come last.
  std::vector<WorkloadRuns> runs(specs.size());
  for (int round = 0; round < rounds; ++round) {
    for (size_t w = 0; w < specs.size(); ++w) {
      if (round < specs[w].rounds) {
        runs[w].untraced.push_back(
            RunRound(specs[w], w, config, round, /*traced=*/false));
      }
    }
  }
  if (config.trace) {
    for (size_t w = 0; w < specs.size(); ++w) {
      runs[w].traced =
          RunRound(specs[w], w, config, specs[w].rounds, /*traced=*/true);
    }
  }

  const bool end_to_end = !config.single || !config.trace;
  const bool per_layer = config.trace;
  bool correct = true;
  for (size_t w = 0; w < specs.size(); ++w) {
    PrintTable(specs[w].name, runs[w], end_to_end, per_layer);
    correct = correct && runs[w].correct();
  }

  std::string json;
  if (config.single) {
    json = ResultJson(runs[0], end_to_end, per_layer);
  } else {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string workloads;
    for (size_t w = 0; w < specs.size(); ++w) {
      attempted += runs[w].Sum(&RoundResult::attempted);
      failed += runs[w].Sum(&RoundResult::failed);
      workloads += (w == 0 ? "\"" : ", \"") + std::string(specs[w].name) +
                   "\": " + ResultJson(runs[w], end_to_end, per_layer);
    }
    json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) +
           ", \"seed\": " + std::to_string(config.seed) +
           ", \"workloads\": {" + workloads + "}}";
  }
  if (!config.json_path.empty()) {
    std::FILE* out = std::fopen(config.json_path.c_str(), "w");
    if (out == nullptr || std::fprintf(out, "%s\n", json.c_str()) < 0 ||
        std::fclose(out) != 0) {
      Fatal("cannot write " + config.json_path);
    }
  }
  std::printf("\n%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rvmbench

int main(int argc, char** argv) { return rvmbench::Main(argc, argv); }
