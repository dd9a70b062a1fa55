#include "common/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <vector>

#include "common/crc32.h"

namespace qsteer {

namespace {

constexpr size_t kHeaderBytes = 16;  // u32 size | u32 crc | u64 seq

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

void PutU32(unsigned char* out, uint32_t v) {
  out[0] = static_cast<unsigned char>(v);
  out[1] = static_cast<unsigned char>(v >> 8);
  out[2] = static_cast<unsigned char>(v >> 16);
  out[3] = static_cast<unsigned char>(v >> 24);
}

void PutU64(unsigned char* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const unsigned char* in) {
  return static_cast<uint32_t>(in[0]) | static_cast<uint32_t>(in[1]) << 8 |
         static_cast<uint32_t>(in[2]) << 16 | static_cast<uint32_t>(in[3]) << 24;
}

uint64_t GetU64(const unsigned char* in) {
  return static_cast<uint64_t>(GetU32(in)) | static_cast<uint64_t>(GetU32(in + 4)) << 32;
}

uint32_t RecordCrc(uint64_t seq, std::string_view payload) {
  unsigned char seq_le[8];
  PutU64(seq_le, seq);
  uint32_t crc = Crc32Update(0, seq_le, sizeof(seq_le));
  return Crc32Update(crc, payload.data(), payload.size());
}

Status WriteAll(int fd, const unsigned char* data, size_t len, const std::string& path) {
  size_t written = 0;
  while (written < len) {
    ssize_t n = ::write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("wal write failed", path);
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

WriteAheadLog::~WriteAheadLog() { Close(); }

Status WriteAheadLog::Open(const std::string& path, bool sync_each_append) {
  Close();
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("cannot open wal", path);
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Errno("cannot seek wal", path);
  }
  fd_ = fd;
  path_ = path;
  sync_each_append_ = sync_each_append;
  intact_end_ = end;
  torn_ = false;
  return Status::OK();
}

void WriteAheadLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WriteAheadLog::Append(uint64_t seq, std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  if (payload.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument("wal payload too large");
  }
  if (torn_) {
    // O_APPEND writes land at the file's end, so the previous failure's
    // partial frame must go first or it would hide this record from replay.
    if (::ftruncate(fd_, intact_end_) != 0) return Errno("wal truncate failed", path_);
    torn_ = false;
  }
  // One buffered write per record: a crash can tear the record (recovery
  // truncates it) but never interleave two records.
  std::vector<unsigned char> record(kHeaderBytes + payload.size());
  PutU32(record.data(), static_cast<uint32_t>(payload.size()));
  PutU32(record.data() + 4, RecordCrc(seq, payload));
  PutU64(record.data() + 8, seq);
  std::memcpy(record.data() + kHeaderBytes, payload.data(), payload.size());
  torn_ = true;  // until the record is whole (and synced)
  if (short_write_armed_) {
    // Injected ENOSPC / crash-mid-write: persist only a prefix of the frame,
    // then fail. The torn frame is exactly what Recover() must truncate.
    short_write_armed_ = false;
    size_t prefix = std::min(short_write_max_bytes_, record.size());
    Status partial = WriteAll(fd_, record.data(), prefix, path_);
    if (!partial.ok()) return partial;
    if (sync_each_append_) ::fsync(fd_);
    return Status::Internal("injected short write (ENOSPC): " + path_);
  }
  Status status = WriteAll(fd_, record.data(), record.size(), path_);
  if (!status.ok()) return status;
  if (sync_each_append_ && ::fsync(fd_) != 0) return Errno("wal fsync failed", path_);
  torn_ = false;
  intact_end_ += static_cast<int64_t>(record.size());
  ++appended_records_;
  return Status::OK();
}

Status WriteAheadLog::Reset() {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  if (::ftruncate(fd_, 0) != 0) return Errno("wal truncate failed", path_);
  intact_end_ = 0;
  torn_ = false;
  if (sync_each_append_ && ::fsync(fd_) != 0) return Errno("wal fsync failed", path_);
  return Status::OK();
}

Result<WriteAheadLog::RecoveryInfo> WriteAheadLog::Recover(
    const std::string& path,
    const std::function<Status(uint64_t seq, std::string_view payload)>& fn) {
  RecoveryInfo info;
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    if (errno == ENOENT) return info;  // fresh log
    return Errno("cannot open wal", path);
  }

  off_t file_size = ::lseek(fd, 0, SEEK_END);
  if (file_size < 0) {
    ::close(fd);
    return Errno("cannot seek wal", path);
  }
  ::lseek(fd, 0, SEEK_SET);

  std::string content(static_cast<size_t>(file_size), '\0');
  size_t read_total = 0;
  while (read_total < content.size()) {
    ssize_t n = ::read(fd, content.data() + read_total, content.size() - read_total);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Errno("wal read failed", path);
    }
    if (n == 0) break;  // concurrent truncation; treat the rest as torn
    read_total += static_cast<size_t>(n);
  }
  content.resize(read_total);

  size_t offset = 0;
  while (true) {
    if (content.size() - offset < kHeaderBytes) break;  // torn or clean end
    const auto* header = reinterpret_cast<const unsigned char*>(content.data() + offset);
    uint32_t payload_size = GetU32(header);
    uint32_t stored_crc = GetU32(header + 4);
    uint64_t seq = GetU64(header + 8);
    if (payload_size > kMaxPayloadBytes) break;  // corrupt length field
    if (content.size() - offset - kHeaderBytes < payload_size) break;  // torn payload
    std::string_view payload(content.data() + offset + kHeaderBytes, payload_size);
    if (RecordCrc(seq, payload) != stored_crc) break;  // torn or corrupt record
    Status status = fn(seq, payload);
    if (!status.ok()) {
      ::close(fd);
      return status;
    }
    ++info.records;
    info.last_seq = seq;
    offset += kHeaderBytes + payload_size;
  }

  info.truncated_bytes = static_cast<int64_t>(content.size() - offset);
  if (info.truncated_bytes > 0) {
    if (::ftruncate(fd, static_cast<off_t>(offset)) != 0 || ::fsync(fd) != 0) {
      ::close(fd);
      return Errno("wal tail truncation failed", path);
    }
  }
  ::close(fd);
  return info;
}

}  // namespace qsteer
