#include "common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "common/crc32.h"

namespace qsteer {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("cannot open directory", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("cannot fsync directory", dir);
  return Status::OK();
}

}  // namespace

// qsteer-lint: allow(crc-before-trust) this IS the raw-read primitive; verifying wrappers (ReadFileChecksummed) layer on top
Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open: " + path);
  std::string content;
  char buffer[1 << 16];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read failed: " + path);
  return content;
}

Status AtomicWriteFile(const std::string& path, const std::string& content, bool sync) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("cannot create", tmp);
  size_t written = 0;
  while (written < content.size()) {
    ssize_t n = ::write(fd, content.data() + written, content.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Errno("write failed", tmp);
    }
    written += static_cast<size_t>(n);
  }
  if (sync && ::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    return Errno("fsync failed", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Errno("close failed", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Errno("rename failed", tmp);
  }
  // The rename itself must survive a crash: fsync the directory entry.
  if (sync) return SyncDir(DirOf(path));
  return Status::OK();
}

namespace {
constexpr char kCrcPrefix[] = "# crc32 ";
constexpr size_t kCrcPrefixLen = sizeof(kCrcPrefix) - 1;
constexpr size_t kCrcHexLen = 8;
}  // namespace

std::string Crc32FooterLine(const std::string& content) {
  char footer[kCrcPrefixLen + kCrcHexLen + 2];
  std::snprintf(footer, sizeof(footer), "%s%08x\n", kCrcPrefix, Crc32(content));
  return footer;
}

Status WriteFileChecksummed(const std::string& path, const std::string& content, bool sync) {
  return AtomicWriteFile(path, content + Crc32FooterLine(content), sync);
}

Result<std::string> ReadFileChecksummed(const std::string& path) {
  Result<std::string> read = ReadFileToString(path);
  if (!read.ok()) return read;
  std::string content = std::move(read.value());

  // The footer is the final "\n"-terminated line: prefix + exactly 8 hex.
  const size_t footer_len = kCrcPrefixLen + kCrcHexLen + 1;
  if (content.size() < footer_len || content.back() != '\n' ||
      content.compare(content.size() - footer_len, kCrcPrefixLen, kCrcPrefix) != 0) {
    return Status::InvalidArgument("no crc32 footer (truncated or foreign file): " + path);
  }
  const char* hex = content.data() + content.size() - kCrcHexLen - 1;
  uint32_t stored = 0;
  auto [end, ec] = std::from_chars(hex, hex + kCrcHexLen, stored, 16);
  if (ec != std::errc() || end != hex + kCrcHexLen) {
    return Status::InvalidArgument("malformed crc32 footer: " + path);
  }
  content.resize(content.size() - footer_len);
  if (Crc32(content) != stored) {
    return Status::InvalidArgument("checksum mismatch (torn or corrupt file): " + path);
  }
  return content;
}

}  // namespace qsteer
