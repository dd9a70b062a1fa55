// Crash-safe file I/O for durable service state.
//
// The failure model is a process crash (or kill -9) at any instruction:
// a plain ofstream rewrite can leave a half-written file that a later load
// mis-parses silently. Two defenses, used together by the recommender store
// and the service snapshots:
//
//  * AtomicWriteFile: write to `<path>.tmp`, flush + fsync the file, rename
//    over `path`, fsync the parent directory. Readers see either the old
//    complete content or the new complete content, never a mixture.
//  * A mandatory `# crc32 xxxxxxxx` footer line (WriteFileChecksummed /
//    ReadFileChecksummed) so a file torn by a non-atomic writer — or by a
//    filesystem that reorders the rename — is *detected* at load instead of
//    silently mis-parsed. A file without the footer is rejected.
#ifndef QSTEER_COMMON_FILE_IO_H_
#define QSTEER_COMMON_FILE_IO_H_

#include <string>

#include "common/status.h"

namespace qsteer {

/// Reads the whole file; NotFound when it does not exist.
Result<std::string> ReadFileToString(const std::string& path);

/// Atomically replaces `path` with `content` (temp file + fsync + rename +
/// directory fsync). `sync` = false skips the fsyncs (tests, tmpfs) but
/// keeps the rename atomicity.
Status AtomicWriteFile(const std::string& path, const std::string& content, bool sync = true);

/// The checksum footer appended by WriteFileChecksummed: "# crc32 <8 hex>\n"
/// computed over every byte before the footer line.
std::string Crc32FooterLine(const std::string& content);

/// AtomicWriteFile of `content` + Crc32FooterLine(content).
Status WriteFileChecksummed(const std::string& path, const std::string& content,
                            bool sync = true);

/// Reads a WriteFileChecksummed file: verifies the crc32 footer and returns
/// the content without it. NotFound when the file does not exist; a missing,
/// malformed or mismatching footer (torn, truncated, corrupt or foreign
/// file) is InvalidArgument. Unverified content is never returned.
Result<std::string> ReadFileChecksummed(const std::string& path);

}  // namespace qsteer

#endif  // QSTEER_COMMON_FILE_IO_H_
