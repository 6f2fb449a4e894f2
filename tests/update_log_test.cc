// Unit tests for the write-ahead update log: framing round-trips, torn-tail
// trimming at every byte, injected-crash append sweeps, and the typed-error
// contract for corruption that cannot be a torn write.
#include "core/update_log.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

namespace dsig {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> data(static_cast<size_t>(size));
  if (!data.empty()) {
    EXPECT_EQ(std::fread(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
  return data;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

std::vector<UpdateRecord> ScriptedStream() {
  return {
      UpdateRecord::Add(3, 7, 1.5),
      UpdateRecord::SetWeight(0, 2.25),
      UpdateRecord::Remove(2),
      UpdateRecord::Add(1, 9, 0.75),
      UpdateRecord::SetWeight(4, 10.0),
  };
}

TEST(UpdateLogTest, RoundTripsRecordsAndSequenceNumbers) {
  const std::string path = TempPath("wal_roundtrip.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 42).ok());

  auto log = UpdateLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ((*log)->base_seq(), 42u);
  EXPECT_EQ((*log)->record_count(), 0u);
  for (const UpdateRecord& r : ScriptedStream()) {
    ASSERT_TRUE((*log)->Append(r).ok());
  }
  ASSERT_TRUE((*log)->Sync().ok());
  EXPECT_EQ((*log)->record_count(), ScriptedStream().size());
  ASSERT_TRUE((*log)->Close().ok());

  const auto replay = UpdateLog::Replay(path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->base_seq, 42u);
  EXPECT_EQ(replay->torn_bytes, 0u);
  EXPECT_EQ(replay->records, ScriptedStream());
  EXPECT_EQ(replay->committed_bytes,
            UpdateLog::kHeaderBytes +
                ScriptedStream().size() * UpdateLog::kFrameBytes);
}

TEST(UpdateLogTest, AppendingResumesAfterReopen) {
  const std::string path = TempPath("wal_reopen.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 0).ok());
  {
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(UpdateRecord::Add(0, 1, 1.0)).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  {
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok());
    EXPECT_EQ((*log)->record_count(), 1u);
    ASSERT_TRUE((*log)->Append(UpdateRecord::Remove(5)).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  const auto replay = UpdateLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0], UpdateRecord::Add(0, 1, 1.0));
  EXPECT_EQ(replay->records[1], UpdateRecord::Remove(5));
}

TEST(UpdateLogTest, CreateAtomicallyReplacesAnExistingLog) {
  const std::string path = TempPath("wal_replace.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 1).ok());
  {
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(UpdateRecord::Remove(0)).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  ASSERT_TRUE(UpdateLog::Create(path, 9).ok());
  const auto replay = UpdateLog::Replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->base_seq, 9u);
  EXPECT_TRUE(replay->records.empty());
}

TEST(UpdateLogTest, CrashDuringCreateLeavesTheOldLogIntact) {
  const std::string path = TempPath("wal_create_crash.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 3).ok());
  for (uint64_t fail_at = 0; fail_at < UpdateLog::kHeaderBytes; ++fail_at) {
    ASSERT_FALSE(UpdateLog::Create(path, 8, {.fail_at = fail_at}).ok())
        << "create survived crash at byte " << fail_at;
    const auto replay = UpdateLog::Replay(path);
    ASSERT_TRUE(replay.ok()) << replay.status();
    EXPECT_EQ(replay->base_seq, 3u) << "old log lost at byte " << fail_at;
  }
}

// The crash-consistency core: kill the writer at every byte offset of a
// scripted append stream and check that replay recovers exactly the frames
// that were fully written — no crash, no corruption error, no extra record.
TEST(UpdateLogTest, EveryByteCrashSweepRecoversTheCommittedPrefix) {
  const std::vector<UpdateRecord> stream = ScriptedStream();
  const uint64_t total =
      UpdateLog::kHeaderBytes + stream.size() * UpdateLog::kFrameBytes;
  const std::string path = TempPath("wal_crash_sweep.wal");
  for (uint64_t fail_at = UpdateLog::kHeaderBytes; fail_at <= total;
       ++fail_at) {
    ASSERT_TRUE(UpdateLog::Create(path, 0).ok());
    auto log = UpdateLog::Open(path, {.fail_at = fail_at});
    ASSERT_TRUE(log.ok());
    Status status;
    for (const UpdateRecord& r : stream) {
      status = (*log)->Append(r);
      if (!status.ok()) break;
    }
    if (fail_at < total) {
      ASSERT_FALSE(status.ok()) << "no crash at byte " << fail_at;
      // Sticky: once the log failed, nothing else may commit.
      EXPECT_FALSE((*log)->Append(stream[0]).ok());
      EXPECT_FALSE((*log)->Sync().ok());
    } else {
      ASSERT_TRUE(status.ok());
    }
    (*log)->Close();
    log->reset();  // release the FILE* before replaying

    const auto replay = UpdateLog::Replay(path);
    ASSERT_TRUE(replay.ok())
        << "crash at byte " << fail_at << ": " << replay.status();
    const uint64_t committed_frames =
        (fail_at - UpdateLog::kHeaderBytes) / UpdateLog::kFrameBytes;
    ASSERT_EQ(replay->records.size(), committed_frames)
        << "crash at byte " << fail_at;
    for (size_t i = 0; i < replay->records.size(); ++i) {
      EXPECT_EQ(replay->records[i], stream[i]) << "crash at byte " << fail_at;
    }
    // Reopening truncates the torn tail and appending continues cleanly.
    auto reopened = UpdateLog::Open(path);
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ((*reopened)->bytes(),
              UpdateLog::kHeaderBytes +
                  committed_frames * UpdateLog::kFrameBytes);
    ASSERT_TRUE((*reopened)->Append(UpdateRecord::Remove(11)).ok());
    ASSERT_TRUE((*reopened)->Close().ok());
    const auto after = UpdateLog::Replay(path);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->records.size(), committed_frames + 1);
    EXPECT_EQ(after->records.back(), UpdateRecord::Remove(11));
  }
}

TEST(UpdateLogTest, EveryTruncationReplaysThePrefixOrFailsTyped) {
  const std::string path = TempPath("wal_trunc.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 0).ok());
  {
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (const UpdateRecord& r : ScriptedStream()) {
      ASSERT_TRUE((*log)->Append(r).ok());
    }
    ASSERT_TRUE((*log)->Close().ok());
  }
  const std::vector<uint8_t> pristine = ReadFile(path);
  for (uint64_t cut = 0; cut <= pristine.size(); ++cut) {
    const auto replay = UpdateLog::Replay(path, {.truncate_at = cut});
    if (cut < UpdateLog::kHeaderBytes) {
      ASSERT_FALSE(replay.ok()) << "cut " << cut;
      EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
    } else {
      ASSERT_TRUE(replay.ok()) << "cut " << cut << ": " << replay.status();
      const uint64_t frames =
          (cut - UpdateLog::kHeaderBytes) / UpdateLog::kFrameBytes;
      EXPECT_EQ(replay->records.size(), frames) << "cut " << cut;
    }
  }
}

TEST(UpdateLogTest, MidLogChecksumFailureIsCorruptionNotATornTail) {
  const std::string path = TempPath("wal_midlog.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 0).ok());
  {
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok());
    for (const UpdateRecord& r : ScriptedStream()) {
      ASSERT_TRUE((*log)->Append(r).ok());
    }
    ASSERT_TRUE((*log)->Close().ok());
  }
  // Flip a payload byte of the *first* record: committed frames follow it,
  // so this can only be bit rot and must not silently drop records.
  const uint64_t offset = UpdateLog::kHeaderBytes + 8 + 2;
  const auto replay = UpdateLog::Replay(path, {.flip_byte = offset});
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);

  // The same flip in the *last* record is indistinguishable from a torn
  // write, so it trims to the previous record instead.
  const uint64_t last = UpdateLog::kHeaderBytes +
                        (ScriptedStream().size() - 1) * UpdateLog::kFrameBytes +
                        8 + 2;
  const auto trimmed = UpdateLog::Replay(path, {.flip_byte = last});
  ASSERT_TRUE(trimmed.ok()) << trimmed.status();
  EXPECT_EQ(trimmed->records.size(), ScriptedStream().size() - 1);
}

TEST(UpdateLogTest, HeaderAndFrameDamageFailTyped) {
  const std::string path = TempPath("wal_damage.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 1234).ok());
  {
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE((*log)->Append(UpdateRecord::Add(0, 1, 2.0)).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  // Magic, version, base_seq, header CRC: every header byte is guarded.
  for (uint64_t offset = 0; offset < UpdateLog::kHeaderBytes; ++offset) {
    const auto replay = UpdateLog::Replay(path, {.flip_byte = offset});
    ASSERT_FALSE(replay.ok()) << "header flip at " << offset;
    EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);
  }
  // A smashed length field cannot be a torn write (a torn frame is a strict
  // prefix, so a complete length field is always genuine).
  std::vector<uint8_t> smashed = ReadFile(path);
  smashed[UpdateLog::kHeaderBytes + 0] = 0xFF;
  WriteFile(path, smashed);
  const auto replay = UpdateLog::Replay(path);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kCorruption);

  // Garbage and missing files are typed, never aborts.
  EXPECT_EQ(UpdateLog::Replay(TempPath("wal_missing.wal")).status().code(),
            StatusCode::kNotFound);
  WriteFile(path, {0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_EQ(UpdateLog::Replay(path).status().code(), StatusCode::kCorruption);
}

// The format's bytes, pinned: a codec change made on both the write and the
// read side would still round-trip, so no other test would notice it.
TEST(UpdateLogTest, OnDiskBytesAreStable) {
  const std::string path = TempPath("wal_bytes.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 42).ok());
  {
    auto log = UpdateLog::Open(path);
    ASSERT_TRUE(log.ok());
    const std::vector<UpdateRecord> stream = ScriptedStream();
    for (size_t i = 0; i < 3; ++i) ASSERT_TRUE((*log)->Append(stream[i]).ok());
    ASSERT_TRUE((*log)->Close().ok());
  }
  const std::vector<uint8_t> expected = {
      // header: "DSWL", version 1, base_seq 42, crc32c of those 16 bytes
      0x44, 0x53, 0x57, 0x4c, 0x01, 0x00, 0x00, 0x00,  //
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  //
      0x4e, 0x43, 0xca, 0x91,                          //
      // Add(3, 7, 1.5): length 17, crc32c, op, a, b, weight
      0x11, 0x00, 0x00, 0x00, 0x86, 0xab, 0xda, 0xb7, 0x01,  //
      0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00,        //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,        //
      // SetWeight(0, 2.25)
      0x11, 0x00, 0x00, 0x00, 0x5a, 0xea, 0xfe, 0x5c, 0x03,  //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,        //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x40,        //
      // Remove(2)
      0x11, 0x00, 0x00, 0x00, 0x5a, 0x76, 0xd0, 0x84, 0x02,  //
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,        //
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  ASSERT_EQ(expected.size(), 95u);
  EXPECT_EQ(ReadFile(path), expected);
}

TEST(UpdateLogTest, ApplyToReproducesEdgeIdsAndRejectsNonsense) {
  RoadNetwork graph;
  for (int i = 0; i < 4; ++i) graph.AddNode({});
  const EdgeId e0 = graph.AddEdge(0, 1, 1.0);
  ASSERT_EQ(e0, 0u);

  RoadNetwork replayed;
  for (int i = 0; i < 4; ++i) replayed.AddNode({});
  replayed.AddEdge(0, 1, 1.0);

  const std::vector<UpdateRecord> stream = {
      UpdateRecord::Add(1, 2, 3.0),       // allocates EdgeId 1
      UpdateRecord::SetWeight(1, 4.5),
      UpdateRecord::Add(2, 3, 1.0),       // allocates EdgeId 2
      UpdateRecord::Remove(0),
  };
  for (const UpdateRecord& r : stream) {
    ASSERT_TRUE(r.ApplyTo(&replayed).ok());
  }
  EXPECT_EQ(replayed.num_edge_slots(), 3u);
  EXPECT_EQ(replayed.edge_weight(1), 4.5);
  EXPECT_TRUE(replayed.edge_removed(0));

  // Out-of-range and invalid records are typed corruption, not aborts.
  EXPECT_EQ(UpdateRecord::Add(0, 9, 1.0).ApplyTo(&replayed).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(UpdateRecord::Remove(99).ApplyTo(&replayed).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(UpdateRecord::Remove(0).ApplyTo(&replayed).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(UpdateRecord::SetWeight(1, -2.0).ApplyTo(&replayed).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(UpdateRecord::Add(1, 1, 1.0).ApplyTo(&replayed).code(),
            StatusCode::kCorruption);
  UpdateRecord bad_op = UpdateRecord::Remove(1);
  bad_op.op = 77;
  EXPECT_EQ(bad_op.ApplyTo(&replayed).code(), StatusCode::kCorruption);

  // Append refuses invalid records without latching the log.
  const std::string path = TempPath("wal_validate.wal");
  ASSERT_TRUE(UpdateLog::Create(path, 0).ok());
  auto log = UpdateLog::Open(path);
  ASSERT_TRUE(log.ok());
  EXPECT_FALSE((*log)->Append(UpdateRecord::Add(1, 1, 1.0)).ok());
  EXPECT_TRUE((*log)->Append(UpdateRecord::Add(0, 1, 1.0)).ok());
  EXPECT_TRUE((*log)->Close().ok());
}

}  // namespace
}  // namespace dsig
