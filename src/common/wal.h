// Checksummed write-ahead log for the steering service's durable state.
//
// Append-only binary record stream. Each record carries the application
// sequence number of the event it journals plus a CRC32 over the sequence
// and payload, so recovery can tell three situations apart:
//
//  * a complete, intact record           -> replay it;
//  * a torn tail (crash mid-append:      -> truncate it; every record
//    short header, short payload, or        before it is intact by the
//    CRC mismatch on the final record)      append ordering;
//  * corruption *before* intact records  -> also truncated, by the same
//    (bit rot, concurrent writer)           rule: replay keeps the longest
//                                           intact prefix.
//
// Record layout (little-endian, fixed 16-byte header):
//   u32 payload_size | u32 crc32(seq_le || payload) | u64 seq | payload
//
// Durability contract: Append() returns only after the record is written
// (and fsynced when `sync_each_append`); the caller applies the event to
// in-memory state *after* journaling it, so any state observable by other
// threads is always recoverable from disk.
//
// Thread-safety: NONE. WriteAheadLog carries no internal mutex by design —
// its one production owner (DurableRecommenderStore) already serializes
// every append under the store mutex (the member is declared
// `wal_ GUARDED_BY(mu_)`, so Clang's thread-safety analysis enforces the
// discipline there). Adding a second lock here would only hide ordering
// bugs: WAL order must equal application order, which a per-call lock
// cannot guarantee.
#ifndef QSTEER_COMMON_WAL_H_
#define QSTEER_COMMON_WAL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace qsteer {

class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if missing) for appending. Run Recover() first: Open
  /// refuses nothing about a torn tail and would append after it, hiding
  /// the intact prefix behind a corrupt record.
  Status Open(const std::string& path, bool sync_each_append = true);
  bool is_open() const { return fd_ >= 0; }
  void Close();

  /// Journals one record. `seq` must be strictly increasing per log; this
  /// is the application's event sequence, used by recovery to skip events
  /// already captured by a snapshot. After a failed Append the next one
  /// first truncates the file back to its last intact record (and fails,
  /// writing nothing, if it cannot), so a torn frame never hides it.
  Status Append(uint64_t seq, std::string_view payload);

  /// Truncates the log to empty (after a successful snapshot made its
  /// records redundant). The log stays open for appending.
  Status Reset();

  int64_t appended_records() const { return appended_records_; }

  struct RecoveryInfo {
    int64_t records = 0;         // intact records replayed
    uint64_t last_seq = 0;       // seq of the last intact record (0 if none)
    int64_t truncated_bytes = 0; // torn/corrupt tail removed from the file
  };

  /// Replays every intact record in file order through `fn(seq, payload)`
  /// and truncates any torn or corrupt tail in place. A missing file is a
  /// fresh log (zero RecoveryInfo). `fn` returning a non-OK status aborts
  /// the replay with that status (the tail is left untouched).
  static Result<RecoveryInfo> Recover(
      const std::string& path,
      const std::function<Status(uint64_t seq, std::string_view payload)>& fn);

  /// Records larger than this are treated as corruption by recovery (a
  /// wildly implausible size is almost certainly a torn length field).
  static constexpr uint32_t kMaxPayloadBytes = 1u << 20;

  /// Fault injection: the NEXT Append() writes only the first `max_bytes`
  /// of its record to disk, then fails with kInternal as a full device
  /// (ENOSPC) or kill-mid-write would. One-shot — the hook disarms itself.
  /// The fail-stop contract under test: a short-written frame must never be
  /// replayed by Recover(), and the log must keep working after reopening.
  void SetShortWriteForTesting(size_t max_bytes) {
    short_write_armed_ = true;
    short_write_max_bytes_ = max_bytes;
  }

 private:
  int fd_ = -1;
  std::string path_;
  bool sync_each_append_ = true;
  int64_t appended_records_ = 0;
  int64_t intact_end_ = 0;  // file offset just past the last intact record
  bool torn_ = false;       // a failed Append may have left bytes past it
  bool short_write_armed_ = false;
  size_t short_write_max_bytes_ = 0;
};

}  // namespace qsteer

#endif  // QSTEER_COMMON_WAL_H_
