// Tests for the log format (Fig. 5) and the LogDevice (status block,
// circular append, wraparound, scans).
#include <gtest/gtest.h>

#include "src/os/fault_env.h"
#include "src/os/mem_env.h"
#include "src/rvm/log_device.h"
#include "src/rvm/log_format.h"
#include "src/util/random.h"

namespace rvm {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t seed) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i);
  }
  return data;
}

// --- Status block -----------------------------------------------------------

TEST(StatusBlockTest, RoundTrip) {
  LogStatusBlock block;
  block.generation = 7;
  block.log_size = 1 << 20;
  block.head = 9000;
  block.tail = 12000;
  block.tail_seqno = 55;
  block.last_record_offset = 11000;
  block.next_segment_id = 3;
  block.segments = {{1, "/data/seg1"}, {2, "/data/seg2"}};

  auto encoded = EncodeStatusBlock(block);
  ASSERT_TRUE(encoded.ok());
  ASSERT_EQ(encoded->size(), kStatusBlockSize);
  auto decoded = DecodeStatusBlock(*encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->generation, 7u);
  EXPECT_EQ(decoded->log_size, 1u << 20);
  EXPECT_EQ(decoded->head, 9000u);
  EXPECT_EQ(decoded->tail, 12000u);
  EXPECT_EQ(decoded->tail_seqno, 55u);
  EXPECT_EQ(decoded->last_record_offset, 11000u);
  EXPECT_EQ(decoded->next_segment_id, 3u);
  ASSERT_EQ(decoded->segments.size(), 2u);
  EXPECT_EQ(decoded->segments[0].id, 1u);
  EXPECT_EQ(decoded->segments[1].path, "/data/seg2");
}

TEST(StatusBlockTest, CorruptionDetected) {
  LogStatusBlock block;
  block.log_size = 1 << 20;
  auto encoded = EncodeStatusBlock(block);
  ASSERT_TRUE(encoded.ok());
  (*encoded)[100] ^= 0xFF;
  EXPECT_EQ(DecodeStatusBlock(*encoded).status().code(), ErrorCode::kCorruption);
}

TEST(StatusBlockTest, WrongSizeRejected) {
  std::vector<uint8_t> tiny(10);
  EXPECT_FALSE(DecodeStatusBlock(tiny).ok());
}

TEST(StatusBlockTest, OverlongPathRejected) {
  LogStatusBlock block;
  block.segments = {{1, std::string(kMaxSegmentPath + 1, 'x')}};
  EXPECT_FALSE(EncodeStatusBlock(block).ok());
}

// --- Record encoding ---------------------------------------------------------

TEST(RecordTest, TransactionRoundTrip) {
  std::vector<uint8_t> data1 = Payload(100, 1);
  std::vector<uint8_t> data2 = Payload(37, 2);
  std::vector<RangeView> ranges = {
      {.segment = 1, .offset = 4096, .data = data1},
      {.segment = 2, .offset = 0, .data = data2},
  };
  std::vector<uint8_t> encoded = EncodeTransactionRecord(9, 42, 1234, ranges);
  uint64_t lengths[] = {100, 37};
  EXPECT_EQ(encoded.size(), TransactionRecordSize(lengths));

  auto parsed = ParseRecord(encoded);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->header.type, RecordType::kTransaction);
  EXPECT_EQ(parsed->header.seqno, 9u);
  EXPECT_EQ(parsed->header.tid, 42u);
  EXPECT_EQ(parsed->header.prev_offset, 1234u);
  ASSERT_EQ(parsed->ranges.size(), 2u);
  EXPECT_EQ(parsed->ranges[0].segment, 1u);
  EXPECT_EQ(parsed->ranges[0].offset, 4096u);
  EXPECT_TRUE(std::equal(data1.begin(), data1.end(),
                         parsed->ranges[0].data.begin()));
  EXPECT_EQ(parsed->ranges[1].segment, 2u);
  EXPECT_TRUE(std::equal(data2.begin(), data2.end(),
                         parsed->ranges[1].data.begin()));
}

TEST(RecordTest, EmptyTransactionRecord) {
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, {});
  EXPECT_EQ(encoded.size(), kRecordHeaderSize);
  auto parsed = ParseRecord(encoded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->ranges.empty());
}

TEST(RecordTest, WrapFillerRoundTrip) {
  std::vector<uint8_t> encoded = EncodeWrapFiller(5, 777);
  auto parsed = ParseRecord(encoded);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header.type, RecordType::kWrapFiller);
  EXPECT_EQ(parsed->header.seqno, 5u);
  EXPECT_EQ(parsed->header.prev_offset, 777u);
}

TEST(RecordTest, CorruptPayloadDetected) {
  std::vector<uint8_t> data = Payload(64, 3);
  std::vector<RangeView> ranges = {{.segment = 1, .offset = 0, .data = data}};
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, ranges);
  encoded[encoded.size() - 1] ^= 0x01;
  EXPECT_EQ(ParseRecord(encoded).status().code(), ErrorCode::kCorruption);
}

TEST(RecordTest, CorruptHeaderDetected) {
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, {});
  encoded[0] ^= 0xFF;  // magic
  EXPECT_EQ(ParseRecord(encoded).status().code(), ErrorCode::kCorruption);
}

TEST(RecordTest, TruncatedRecordDetected) {
  std::vector<uint8_t> data = Payload(64, 4);
  std::vector<RangeView> ranges = {{.segment = 1, .offset = 0, .data = data}};
  std::vector<uint8_t> encoded = EncodeTransactionRecord(1, 1, 0, ranges);
  encoded.resize(encoded.size() - 10);
  EXPECT_EQ(ParseRecord(encoded).status().code(), ErrorCode::kCorruption);
}

// --- LogDevice ----------------------------------------------------------------

// Offsets the live-record walk yields, newest first.
StatusOr<std::vector<uint64_t>> WalkOffsets(LogDevice& log) {
  std::vector<uint64_t> offsets;
  LogDevice::LiveRecords walk(log);
  for (;;) {
    RVM_ASSIGN_OR_RETURN(const OwnedRecord* record, walk.Next());
    if (record == nullptr) {
      return offsets;
    }
    offsets.push_back(record->offset);
  }
}

class LogDeviceTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kLogSize = kLogDataStart + 64 * 1024;

  void SetUp() override {
    ASSERT_TRUE(LogDevice::Create(&env_, "/log", kLogSize, false).ok());
    auto opened = LogDevice::Open(&env_, "/log");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    log_ = std::move(*opened);
  }

  StatusOr<uint64_t> Append(size_t data_size, uint8_t seed = 0) {
    data_.push_back(Payload(data_size, seed));
    RangeView range{.segment = 1, .offset = 0, .data = data_.back()};
    return log_->AppendTransaction(1, {&range, 1});
  }

  MemEnv env_;
  std::unique_ptr<LogDevice> log_;
  std::vector<std::vector<uint8_t>> data_;
};

TEST_F(LogDeviceTest, CreateRejectsExisting) {
  EXPECT_EQ(LogDevice::Create(&env_, "/log", kLogSize, false).code(),
            ErrorCode::kAlreadyExists);
  EXPECT_TRUE(LogDevice::Create(&env_, "/log", kLogSize, true).ok());
}

TEST_F(LogDeviceTest, CreateRejectsTinyLog) {
  EXPECT_EQ(LogDevice::Create(&env_, "/tiny", 100, false).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(LogDeviceTest, FreshLogIsEmpty) {
  EXPECT_EQ(log_->used(), 0u);
  EXPECT_EQ(log_->capacity(), kLogSize - kLogDataStart);
  auto offsets = WalkOffsets(*log_);
  ASSERT_TRUE(offsets.ok());
  EXPECT_TRUE(offsets->empty());
}

TEST_F(LogDeviceTest, AppendAndReadBack) {
  auto offset = Append(128, 7);
  ASSERT_TRUE(offset.ok());
  EXPECT_EQ(*offset, kLogDataStart);
  OwnedRecord record;
  ASSERT_TRUE(log_->ReadRecordAt(*offset, record).ok());
  EXPECT_EQ(record.parsed.header.tid, 1u);
  ASSERT_EQ(record.parsed.ranges.size(), 1u);
  EXPECT_EQ(record.parsed.ranges[0].data.size(), 128u);
  EXPECT_EQ(record.parsed.ranges[0].data[1], 8);
}

TEST_F(LogDeviceTest, SequenceNumbersIncrease) {
  ASSERT_TRUE(Append(10).ok());
  ASSERT_TRUE(Append(10).ok());
  std::vector<uint64_t> seqnos;
  LogDevice::LiveRecords walk(*log_);
  for (;;) {
    auto record = walk.Next();
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    if (*record == nullptr) {
      break;
    }
    seqnos.push_back((*record)->parsed.header.seqno);
  }
  ASSERT_EQ(seqnos.size(), 2u);
  EXPECT_EQ(seqnos[0], seqnos[1] + 1);  // newest first
}

TEST_F(LogDeviceTest, ReverseChainWalksNewestFirst) {
  std::vector<uint64_t> expected;
  for (int i = 0; i < 5; ++i) {
    auto offset = Append(64, static_cast<uint8_t>(i));
    ASSERT_TRUE(offset.ok());
    expected.push_back(*offset);
  }
  auto offsets = WalkOffsets(*log_);
  ASSERT_TRUE(offsets.ok());
  std::reverse(expected.begin(), expected.end());
  EXPECT_EQ(*offsets, expected);
}

TEST_F(LogDeviceTest, StatusSurvivesReopen) {
  ASSERT_TRUE(Append(100).ok());
  ASSERT_TRUE(log_->Sync().ok());
  ASSERT_TRUE(log_->WriteStatus().ok());
  uint64_t tail = log_->status().tail;

  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->status().tail, tail);
  EXPECT_EQ((*reopened)->status().tail_seqno, 2u);
}

TEST_F(LogDeviceTest, ForwardScanFindsRecordsBeyondStatusTail) {
  // Write status, then append two more records *with* sync but no status
  // update: recovery must find them by forward scanning.
  ASSERT_TRUE(log_->WriteStatus().ok());
  ASSERT_TRUE(Append(50).ok());
  ASSERT_TRUE(Append(60).ok());
  ASSERT_TRUE(log_->Sync().ok());

  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->used(), 0u);  // stale status says empty
  auto found = (*reopened)->ExtendTailForward();
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 2u);
  EXPECT_EQ((*reopened)->status().tail, log_->status().tail);
  auto offsets = WalkOffsets(**reopened);
  ASSERT_TRUE(offsets.ok());
  EXPECT_EQ(offsets->size(), 2u);
}

TEST_F(LogDeviceTest, ForwardScanStopsAtTornRecord) {
  ASSERT_TRUE(log_->WriteStatus().ok());
  ASSERT_TRUE(Append(50).ok());
  auto second = Append(60);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(log_->Sync().ok());
  // Corrupt the second record's payload, simulating a torn write.
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  uint8_t junk = 0x5A;
  ASSERT_TRUE((*file)->WriteAt(*second + kRecordHeaderSize + 10,
                               std::span<const uint8_t>(&junk, 1)).ok());

  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  auto found = (*reopened)->ExtendTailForward();
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, 1u);  // only the intact record
}

TEST_F(LogDeviceTest, WrapAroundProducesFillerAndWraps) {
  // Fill most of the log, truncate (MarkEmpty) to free space, then keep
  // appending until the tail wraps past the end of the area.
  const uint64_t record_data = 4096;
  uint64_t appended = 0;
  while (log_->free_space() > 3 * (record_data + 256)) {
    ASSERT_TRUE(Append(record_data).ok());
    ++appended;
  }
  ASSERT_GT(appended, 5u);
  log_->MarkEmpty();  // simulate a truncation that consumed everything
  ASSERT_TRUE(log_->WriteStatus().ok());

  // Now appends continue from a tail near the end; the next few must wrap.
  std::vector<uint64_t> offsets_written;
  for (int i = 0; i < 4; ++i) {
    auto offset = Append(record_data, static_cast<uint8_t>(i));
    ASSERT_TRUE(offset.ok()) << offset.status().ToString();
    offsets_written.push_back(*offset);
  }
  EXPECT_LT(offsets_written.back(), offsets_written.front())
      << "tail should have wrapped to the area start";

  // All records retrievable via the reverse chain (filler skipped in data,
  // but present in the chain).
  uint64_t transactions = 0;
  LogDevice::LiveRecords walk(*log_);
  for (;;) {
    auto record = walk.Next();
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    if (*record == nullptr) {
      break;
    }
    if ((*record)->parsed.header.type == RecordType::kTransaction) {
      ++transactions;
    }
  }
  EXPECT_EQ(transactions, 4u);
}

// --- The live-record walk ---------------------------------------------------

TEST_F(LogDeviceTest, LiveRecordsWalkThroughWrapFillerDownToHead) {
  // Fill most of the area, then let a truncation free everything older than
  // the fourth record, so the head sits mid-area with stale records below.
  const uint64_t record_data = 4096;
  std::vector<uint64_t> written;
  while (log_->free_space() > 3 * (record_data + 256)) {
    auto offset = Append(record_data);
    ASSERT_TRUE(offset.ok());
    written.push_back(*offset);
  }
  ASSERT_GT(written.size(), 5u);
  const uint64_t head = written[3];
  written.erase(written.begin(), written.begin() + 3);
  log_->status().head = head;
  // Appends now run off the end of the area: a wrap filler, then a record
  // at the start of the area, over stale ones.
  for (int i = 0; i < 4; ++i) {
    const uint64_t tail = log_->status().tail;
    auto offset = Append(record_data, static_cast<uint8_t>(i));
    ASSERT_TRUE(offset.ok()) << offset.status().ToString();
    if (*offset < tail) {
      ASSERT_GE(kLogSize - tail, kRecordHeaderSize);
      written.push_back(tail);  // the filler precedes the wrapped record
      written.push_back(*offset);
      break;
    }
    written.push_back(*offset);
  }
  ASSERT_LT(written.back(), head) << "the tail should have wrapped";
  // Fill up to the head with small records: the tail passes the start of
  // the stale record before the head, so the head's reverse displacement
  // points into live data and only the stop at the head ends the walk.
  for (auto offset = Append(64); offset.ok(); offset = Append(64)) {
    written.push_back(*offset);
  }
  OwnedRecord head_record;
  ASSERT_TRUE(log_->ReadRecordAt(head, head_record).ok());
  ASSERT_LT(head_record.parsed.header.prev_offset, log_->status().tail);

  std::vector<uint64_t> offsets;
  uint64_t fillers = 0;
  uint64_t previous_seqno = UINT64_MAX;
  LogDevice::LiveRecords walk(*log_);
  for (;;) {
    auto record = walk.Next();
    ASSERT_TRUE(record.ok()) << record.status().ToString();
    if (*record == nullptr) {
      break;
    }
    if (!offsets.empty()) {
      EXPECT_EQ((*record)->parsed.header.seqno + 1, previous_seqno);
    }
    previous_seqno = (*record)->parsed.header.seqno;
    if ((*record)->parsed.header.type == RecordType::kWrapFiller) {
      ++fillers;
    }
    offsets.push_back((*record)->offset);
  }
  std::reverse(written.begin(), written.end());
  EXPECT_EQ(offsets, written);
  EXPECT_EQ(fillers, 1u);
  EXPECT_EQ(offsets.back(), head) << "the head is the last record yielded";
  // The walk is over: it stays over.
  auto after = walk.Next();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, nullptr);
}

TEST_F(LogDeviceTest, LiveRecordsReportsChainLoops) {
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 5; ++i) {
    auto offset = Append(64, static_cast<uint8_t>(i));
    ASSERT_TRUE(offset.ok());
    offsets.push_back(*offset);
  }
  // Re-encode the middle record, CRC and all, with a reverse displacement
  // that points at a newer live record: a well-formed chain that loops.
  OwnedRecord middle;
  ASSERT_TRUE(log_->ReadRecordAt(offsets[2], middle).ok());
  const RecordHeader& header = middle.parsed.header;
  std::vector<uint8_t> looped = EncodeTransactionRecord(
      header.seqno, header.tid, offsets[4], middle.parsed.ranges,
      header.flags);
  ASSERT_EQ(looped.size(), middle.bytes.size());
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  ASSERT_TRUE((*file)->WriteAt(offsets[2], looped).ok());

  LogDevice::LiveRecords walk(*log_);
  StatusOr<const OwnedRecord*> record = walk.Next();
  uint64_t yielded = 0;
  while (record.ok() && *record != nullptr) {
    ++yielded;
    record = walk.Next();
  }
  ASSERT_FALSE(record.ok()) << "a looping chain must not end cleanly";
  EXPECT_EQ(record.status().code(), ErrorCode::kCorruption);
  EXPECT_NE(record.status().message().find("chain loops"), std::string::npos)
      << record.status().ToString();
  EXPECT_EQ(yielded, log_->capacity() / kRecordHeaderSize + 1);
}

TEST_F(LogDeviceTest, LiveRecordsStopsAtUnreadableRecord) {
  std::vector<uint64_t> offsets;
  for (int i = 0; i < 5; ++i) {
    auto offset = Append(64, static_cast<uint8_t>(i));
    ASSERT_TRUE(offset.ok());
    offsets.push_back(*offset);
  }
  ASSERT_TRUE(log_->Sync().ok());
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  uint8_t junk = 0x5A;
  ASSERT_TRUE((*file)->WriteAt(offsets[2] + kRecordHeaderSize + 10,
                               std::span<const uint8_t>(&junk, 1)).ok());

  LogDevice::LiveRecords walk(*log_);
  std::vector<uint64_t> yielded;
  StatusOr<const OwnedRecord*> record = walk.Next();
  while (record.ok() && *record != nullptr) {
    yielded.push_back((*record)->offset);
    record = walk.Next();
  }
  ASSERT_FALSE(record.ok());
  EXPECT_EQ(record.status().code(), ErrorCode::kCorruption);
  EXPECT_EQ(yielded, (std::vector<uint64_t>{offsets[4], offsets[3]}));
  // Nothing older than the unreadable record is ever yielded.
  auto after = walk.Next();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, nullptr);
}

// --- The torn-tail probe ------------------------------------------------------

// Three forced records past the status block's tail, the oldest with a
// corrupted payload: the probe must find the two later ones and call the
// unreadable record mid-log corruption, whatever transient faults its
// chunk read meets. Opens the log through `env`; the caller arms faults.
class TornTailProbeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(LogDevice::Create(&base_, "/log", kLogSize, false).ok());
    auto log = LogDevice::Open(&base_, "/log");
    ASSERT_TRUE(log.ok());
    std::vector<uint8_t> data = Payload(256, 1);
    RangeView range{.segment = 1, .offset = 0, .data = data};
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*log)->AppendTransaction(1, {&range, 1}).ok());
    }
    ASSERT_TRUE((*log)->Sync().ok());
    auto file = base_.Open("/log", OpenMode::kReadWrite);
    uint8_t junk = 0x5A;
    ASSERT_TRUE((*file)->WriteAt(kLogDataStart + kRecordHeaderSize + 10,
                                 std::span<const uint8_t>(&junk, 1)).ok());
    auto reopened = LogDevice::Open(&env_, "/log");
    ASSERT_TRUE(reopened.ok());
    log_ = std::move(*reopened);
  }

  // The probe's first chunk read is the third read of ExtendTailForward,
  // after the unreadable record's header and payload.
  void FailChunkRead(FaultSpec spec) {
    spec.op = FaultOp::kReadAt;
    spec.after = 2;
    env_.InjectFault(spec);
  }

  static constexpr uint64_t kLogSize = kLogDataStart + 64 * 1024;
  MemEnv base_;
  FaultInjectionEnv env_{&base_};
  std::unique_ptr<LogDevice> log_;
};

TEST_F(TornTailProbeTest, NoFaultFindsTheSuccessor) {
  auto found = log_->ExtendTailForward();
  EXPECT_EQ(found.status().code(), ErrorCode::kCorruption);
}

TEST_F(TornTailProbeTest, ShortChunkReadIsRetriedNotTakenAsTheEnd) {
  FaultSpec spec;
  spec.short_read_bytes = 3;
  FailChunkRead(spec);
  auto found = log_->ExtendTailForward();
  EXPECT_EQ(env_.faults_fired(), 1u);
  EXPECT_EQ(found.status().code(), ErrorCode::kCorruption)
      << "a short probe read must not turn mid-log corruption into a torn "
         "tail";
  EXPECT_GT(log_->retries(), 0u);
}

TEST_F(TornTailProbeTest, TransientChunkReadIsRetried) {
  FaultSpec spec;
  spec.code = ErrorCode::kUnavailable;
  FailChunkRead(spec);
  auto found = log_->ExtendTailForward();
  EXPECT_EQ(env_.faults_fired(), 1u);
  EXPECT_EQ(found.status().code(), ErrorCode::kCorruption)
      << found.status().ToString();
  EXPECT_GT(log_->retries(), 0u);
}

TEST_F(TornTailProbeTest, PersistentShortChunkReadIsAnError) {
  FaultSpec spec;
  spec.short_read_bytes = 3;
  spec.sticky = true;
  FailChunkRead(spec);
  auto found = log_->ExtendTailForward();
  EXPECT_EQ(found.status().code(), ErrorCode::kIoError)
      << "bytes the probe never saw cannot prove the tail torn";
}

TEST_F(LogDeviceTest, ScanReturnsHeadersAndSkipsStaleHitsWithoutRereading) {
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(Append(64, static_cast<uint8_t>(i)).ok());
  }
  ASSERT_TRUE(log_->Sync().ok());
  FaultInjectionEnv env(&env_);
  auto log = LogDevice::Open(&env, "/log");
  ASSERT_TRUE(log.ok());

  auto all = (*log)->ScanForRecords(/*min_seqno=*/0, /*max_results=*/100);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 10u);
  for (uint64_t i = 0; i < all->size(); ++i) {
    EXPECT_EQ((*all)[i].header.seqno, i + 1);
    EXPECT_EQ((*all)[i].header.type, RecordType::kTransaction);
  }

  // Every hit is stale for min_seqno 11: the one chunk read (a 64 KB area)
  // is all the I/O the scan does.
  const uint64_t reads = env.operations(FaultOp::kReadAt);
  auto none = (*log)->ScanForRecords(/*min_seqno=*/11, /*max_results=*/100);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(env.operations(FaultOp::kReadAt) - reads, 1u);
}

TEST_F(LogDeviceTest, LogFullWhenNoSpace) {
  Status status = OkStatus();
  // With head pinned at the start, the area must eventually fill.
  for (int i = 0; i < 100; ++i) {
    auto offset = Append(4096);
    if (!offset.ok()) {
      status = offset.status();
      break;
    }
  }
  EXPECT_EQ(status.code(), ErrorCode::kLogFull);
}

TEST_F(LogDeviceTest, OversizeRecordRejected) {
  auto offset = Append(log_->capacity());
  EXPECT_EQ(offset.status().code(), ErrorCode::kLogFull);
}

TEST_F(LogDeviceTest, StatusAlternatesSlotsAtomically) {
  // Each WriteStatus bumps the generation; both slots stay parseable and the
  // newest wins on open.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Append(10).ok());
    ASSERT_TRUE(log_->Sync().ok());
    ASSERT_TRUE(log_->WriteStatus().ok());
  }
  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->status().generation, log_->status().generation);
  EXPECT_EQ((*reopened)->status().tail, log_->status().tail);
}

TEST_F(LogDeviceTest, CorruptOneStatusSlotStillOpens) {
  ASSERT_TRUE(log_->WriteStatus().ok());  // generation 2 -> slot 0
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  std::vector<uint8_t> junk(kStatusBlockSize, 0xFF);
  // Corrupt slot 1 (the older copy).
  ASSERT_TRUE((*file)->WriteAt(kStatusBlockSize, junk).ok());
  auto reopened = LogDevice::Open(&env_, "/log");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->status().generation, log_->status().generation);
}

TEST_F(LogDeviceTest, BothStatusSlotsCorruptFailsToOpen) {
  auto file = env_.Open("/log", OpenMode::kReadWrite);
  std::vector<uint8_t> junk(2 * kStatusBlockSize, 0xFF);
  ASSERT_TRUE((*file)->WriteAt(0, junk).ok());
  EXPECT_EQ(LogDevice::Open(&env_, "/log").status().code(),
            ErrorCode::kCorruption);
}

TEST_F(LogDeviceTest, UsedAccountsAcrossWrap) {
  // Drive the log around the circle with interleaved appends and MarkEmpty,
  // verifying used() never exceeds capacity and reaches 0 after MarkEmpty.
  Xoshiro256 rng(3);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 6; ++i) {
      auto offset = Append(rng.Range(100, 3000));
      if (!offset.ok()) {
        break;
      }
      EXPECT_LE(log_->used(), log_->capacity());
    }
    log_->MarkEmpty();
    EXPECT_EQ(log_->used(), 0u);
  }
}

}  // namespace
}  // namespace rvm
