#include "bench/rvmbench/timing_env.h"

namespace rvmbench {
namespace {

class TimingFile final : public rvm::File {
 public:
  TimingFile(std::unique_ptr<rvm::File> base, FileRole role, Tracer* tracer)
      : base_(std::move(base)), role_(role), tracer_(tracer) {}

  rvm::StatusOr<size_t> ReadAt(uint64_t offset,
                               std::span<uint8_t> out) override {
    if (!tracer_->active()) {
      return base_->ReadAt(offset, out);
    }
    const uint64_t start_ns = NowNanos();
    rvm::StatusOr<size_t> read = base_->ReadAt(offset, out);
    tracer_->RecordIo(IoOp(role_, IoKind::kRead), start_ns, NowNanos(),
                      read.ok() ? *read : 0);
    return read;
  }

  rvm::Status WriteAt(uint64_t offset,
                      std::span<const uint8_t> data) override {
    if (!tracer_->active()) {
      return base_->WriteAt(offset, data);
    }
    const uint64_t start_ns = NowNanos();
    rvm::Status written = base_->WriteAt(offset, data);
    tracer_->RecordIo(IoOp(role_, IoKind::kWrite), start_ns, NowNanos(),
                      written.ok() ? data.size() : 0);
    return written;
  }

  rvm::Status Sync() override {
    if (!tracer_->active()) {
      return base_->Sync();
    }
    const uint64_t start_ns = NowNanos();
    rvm::Status synced = base_->Sync();
    tracer_->RecordIo(IoOp(role_, IoKind::kSync), start_ns, NowNanos(), 0);
    return synced;
  }

  rvm::StatusOr<uint64_t> Size() override { return base_->Size(); }
  rvm::Status Resize(uint64_t size) override { return base_->Resize(size); }
  rvm::Status Preallocate(uint64_t length) override {
    return base_->Preallocate(length);
  }

 private:
  std::unique_ptr<rvm::File> base_;
  const FileRole role_;
  Tracer* tracer_;
};

}  // namespace

FileRole TimingEnv::RoleOf(const std::string& path) const {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".chk") == 0) {
    return FileRole::kChk;
  }
  if (path.compare(0, log_path_.size(), log_path_) == 0) {
    return FileRole::kLog;
  }
  return FileRole::kSeg;
}

rvm::StatusOr<std::unique_ptr<rvm::File>> TimingEnv::Open(
    const std::string& path, rvm::OpenMode mode) {
  rvm::StatusOr<std::unique_ptr<rvm::File>> file = base_->Open(path, mode);
  if (!file.ok()) {
    return file;
  }
  return std::unique_ptr<rvm::File>(
      new TimingFile(std::move(*file), RoleOf(path), tracer_));
}

}  // namespace rvmbench
