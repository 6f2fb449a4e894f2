#include "util/binary_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cstring>
#include <filesystem>

#include "util/crc32c.h"

namespace dsig {
namespace {

const DurableStepRecorder::Sink* g_step_sink = nullptr;

void Report(DurableStep::Kind kind, const std::string& path,
            const std::string& target = {}) {
  if (g_step_sink != nullptr) (*g_step_sink)(DurableStep{kind, path, target});
}

Status SyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IoError("cannot open directory " + dir);
  const int synced = ::fsync(fd);
  ::close(fd);
  if (synced != 0) return Status::IoError("fsync failed for directory " + dir);
  Report(DurableStep::kDirSync, dir);
  return Status::Ok();
}

}  // namespace

BinaryWriter::BinaryWriter(const std::string& path) : path_(path) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) status_ = Status::IoError("cannot create " + path);
}

BinaryWriter::BinaryWriter(const std::string& path, uint64_t offset)
    : path_(path), position_(offset) {
  file_ = std::fopen(path.c_str(), "rb+");
  if (file_ == nullptr) {
    status_ = Status::IoError("cannot open " + path);
  } else if (ftruncate(fileno(file_), static_cast<off_t>(offset)) != 0 ||
             std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    status_ = Status::IoError("cannot position " + path + " at byte " +
                              std::to_string(offset));
  }
}

BinaryWriter::~BinaryWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryWriter::WriteRaw(const void* data, size_t bytes) {
  if (!status_.ok()) return;
  const bool crash = fault_plan_.fail_at != kNoFault &&
                     position_ + bytes > fault_plan_.fail_at;
  const size_t keep =
      !crash ? bytes
             : static_cast<size_t>(fault_plan_.fail_at > position_
                                       ? fault_plan_.fail_at - position_
                                       : 0);
  if (keep > 0 && std::fwrite(data, 1, keep, file_) != keep) {
    status_ = Status::IoError("short write at byte " +
                              std::to_string(position_) + " (disk full?)");
    return;
  }
  section_crc_ = Crc32cExtend(section_crc_, data, keep);
  position_ += keep;
  if (crash) {
    std::fflush(file_);  // the torn prefix reaches the file, as in a crash
    status_ = Status::IoError("injected write failure at byte " +
                              std::to_string(fault_plan_.fail_at));
  }
}

void BinaryWriter::WriteU32(uint32_t value) {
  uint8_t buf[4];
  StoreLE(buf, value);
  WriteRaw(buf, 4);
}

void BinaryWriter::WriteU64(uint64_t value) {
  uint8_t buf[8];
  StoreLE(buf, value);
  WriteRaw(buf, 8);
}

void BinaryWriter::WriteDouble(double value) {
  WriteU64(std::bit_cast<uint64_t>(value));
}

void BinaryWriter::WriteBytes(const std::vector<uint8_t>& bytes) {
  WriteU64(bytes.size());
  if (!bytes.empty()) WriteRaw(bytes.data(), bytes.size());
}

void BinaryWriter::EndSection() {
  // Snapshot first: writing the checksum itself advances the running CRC,
  // but the next BeginSection() resets it anyway.
  const uint32_t crc = section_crc_;
  WriteU32(crc);
}

Status BinaryWriter::Sync() {
  if (!status_.ok() || file_ == nullptr) return status_;
  if (std::fflush(file_) != 0) {
    status_ = Status::IoError("fflush failed for " + path_ + " (disk full?)");
  } else if (::fsync(fileno(file_)) != 0) {
    status_ = Status::IoError("fsync failed for " + path_);
  } else {
    Report(DurableStep::kFileSync, path_);
  }
  return status_;
}

Status BinaryWriter::Close() {
  if (file_ == nullptr) return status_;
  if (std::fflush(file_) != 0 && status_.ok()) {
    status_ = Status::IoError("fflush failed (disk full?)");
  }
  if (std::fclose(file_) != 0 && status_.ok()) {
    status_ = Status::IoError("fclose failed");
  }
  file_ = nullptr;
  return status_;
}

BinaryReader::BinaryReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    status_ = Status::NotFound("cannot open " + path);
    return;
  }
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    status_ = Status::IoError("cannot seek " + path);
    return;
  }
  const long size = std::ftell(file_);
  if (size < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    status_ = Status::IoError("cannot size " + path);
    return;
  }
  effective_size_ = static_cast<uint64_t>(size);
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

void BinaryReader::InjectFaults(const ReadFaultPlan& plan) {
  fault_plan_ = plan;
  if (plan.truncate_at != kNoFault && plan.truncate_at < effective_size_) {
    effective_size_ = plan.truncate_at;
  }
}

void BinaryReader::Fail(Status status) {
  if (status_.ok()) status_ = std::move(status);
}

void BinaryReader::ReadRaw(void* data, size_t bytes) {
  std::memset(data, 0, bytes);
  if (!status_.ok()) return;
  if (bytes > remaining()) {
    Fail(Status::Corruption("unexpected end of file at byte " +
                            std::to_string(position_) + " (file has " +
                            std::to_string(effective_size_) + " bytes)"));
    return;
  }
  if (fault_plan_.fail_at != kNoFault && fault_plan_.fail_at < position_ + bytes) {
    Fail(Status::IoError("injected read failure at byte " +
                         std::to_string(fault_plan_.fail_at)));
    return;
  }
  if (std::fread(data, 1, bytes, file_) != bytes) {
    Fail(Status::IoError("read failed at byte " + std::to_string(position_)));
    return;
  }
  // Bit flips are applied after the physical read and before the CRC update:
  // the checksum layer sees exactly what a corrupted medium would hand it.
  if (fault_plan_.flip_byte != kNoFault && fault_plan_.flip_byte >= position_ &&
      fault_plan_.flip_byte < position_ + bytes) {
    static_cast<uint8_t*>(data)[fault_plan_.flip_byte - position_] ^=
        fault_plan_.flip_mask;
  }
  section_crc_ = Crc32cExtend(section_crc_, data, bytes);
  position_ += bytes;
}

uint32_t BinaryReader::ReadU32() {
  uint8_t buf[4];
  ReadRaw(buf, 4);
  return LoadLE<uint32_t>(buf);
}

uint64_t BinaryReader::ReadU64() {
  uint8_t buf[8];
  ReadRaw(buf, 8);
  return LoadLE<uint64_t>(buf);
}

double BinaryReader::ReadDouble() { return std::bit_cast<double>(ReadU64()); }

uint64_t BinaryReader::ReadCount(uint64_t width, const char* what) {
  const uint64_t count = ReadU64();
  if (status_.ok() && count > remaining() / width) {
    Fail(Status::Corruption(std::string(what) + " length " +
                            std::to_string(count) + " exceeds the " +
                            std::to_string(remaining()) + " bytes remaining"));
  }
  return status_.ok() ? count : 0;
}

std::vector<uint8_t> BinaryReader::ReadBytes() {
  std::vector<uint8_t> bytes(ReadCount(1, "byte-array"));
  if (!bytes.empty()) ReadRaw(bytes.data(), bytes.size());
  return bytes;
}

std::vector<uint32_t> BinaryReader::ReadVectorU32() {
  std::vector<uint32_t> values(ReadCount(4, "u32-vector"));
  for (uint32_t& v : values) v = ReadU32();
  return values;
}

std::vector<double> BinaryReader::ReadVectorDouble() {
  std::vector<double> values(ReadCount(8, "double-vector"));
  for (double& v : values) v = ReadDouble();
  return values;
}

Status BinaryReader::VerifySection(const char* section_name) {
  // Snapshot before consuming the stored checksum — reading it would fold
  // the checksum bytes into the running CRC.
  const uint32_t computed = section_crc_;
  const uint32_t stored = ReadU32();
  if (!status_.ok()) return status_;
  if (computed != stored) {
    Fail(Status::Corruption(std::string(section_name) +
                            " section checksum mismatch (file is corrupt)"));
  }
  return status_;
}

Status AtomicReplace(const std::string& path, const WriteFaultPlan& faults,
                     const std::function<void(BinaryWriter&)>& body) {
  const std::string temp = path + ".tmp";
  Status status;
  {
    BinaryWriter writer(temp);
    writer.InjectFaults(faults);
    if (writer.ok()) body(writer);
    writer.Sync();
    status = writer.Close();
  }
  if (status.ok() && std::rename(temp.c_str(), path.c_str()) != 0) {
    status = Status::IoError("cannot rename " + temp + " over " + path);
  }
  if (!status.ok()) {
    RemoveFile(temp);
    return status;
  }
  Report(DurableStep::kRename, temp, path);
  const std::string dir = std::filesystem::path(path).parent_path().string();
  return SyncDirectory(dir.empty() ? "." : dir);
}

Status RemoveFile(const std::string& path) {
  if (std::remove(path.c_str()) != 0) {
    return Status::IoError("cannot remove " + path);
  }
  Report(DurableStep::kRemove, path);
  return Status::Ok();
}

DurableStepRecorder::DurableStepRecorder(Sink sink) : sink_(std::move(sink)) {
  g_step_sink = &sink_;
}

DurableStepRecorder::~DurableStepRecorder() { g_step_sink = nullptr; }

}  // namespace dsig
