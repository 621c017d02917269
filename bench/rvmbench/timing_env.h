// A forwarding Env that times the library's file I/O from outside.
//
// TimingEnv wraps a base Env (the real one) and forwards every virtual of
// Env and File unchanged — including Preallocate, Rename and SleepMicros, so
// the base's behaviour (zero-filled logs, atomic renames, real retry
// backoff) is preserved. While its Tracer is active it records each
// File::ReadAt/WriteAt/Sync — count, bytes and duration — under the file's
// role: "log" (the log, its manifest and shard files), "chk" (the ".chk"
// page-checksum sidecars) or "seg" (everything else: data segments).
//
// One known behaviour change: recovery replays the shards of a multi-shard
// log in parallel only when the instance's Env is GetRealEnv() itself
// (src/rvm/rvm_truncation.cc), so under TimingEnv multi-shard recovery is
// sequential and its timing is not representative.
#ifndef RVMBENCH_TIMING_ENV_H_
#define RVMBENCH_TIMING_ENV_H_

#include <memory>
#include <string>

#include "bench/rvmbench/tracer.h"
#include "src/os/file.h"

namespace rvmbench {

class TimingEnv final : public rvm::Env {
 public:
  // `log_path` is the path the instance's log was created at; files whose
  // path starts with it are log files.
  TimingEnv(rvm::Env* base, std::string log_path, Tracer* tracer)
      : base_(base), log_path_(std::move(log_path)), tracer_(tracer) {}

  rvm::StatusOr<std::unique_ptr<rvm::File>> Open(const std::string& path,
                                                 rvm::OpenMode mode) override;
  rvm::Status Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void ChargeCpu(double micros) override { base_->ChargeCpu(micros); }
  void SleepMicros(uint64_t micros) override { base_->SleepMicros(micros); }
  rvm::Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }

 private:
  FileRole RoleOf(const std::string& path) const;

  rvm::Env* base_;
  const std::string log_path_;
  Tracer* tracer_;
};

}  // namespace rvmbench

#endif  // RVMBENCH_TIMING_ENV_H_
