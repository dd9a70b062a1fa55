#include "service/durable_store.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/file_io.h"
#include "core/hints.h"

namespace qsteer {

namespace {

constexpr char kSnapshotFile[] = "snapshot.qrs";
constexpr char kWalFile[] = "wal.log";
constexpr char kSeqCommentPrefix[] = "# seq ";

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

bool ParseDoubleExact(const std::string& text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

// Snapshot bytes (disk file body and replication install payload): the
// recommender's v2 store followed by a final `# seq N` watermark line.
std::string EncodeSnapshot(const SteeringRecommender& recommender, uint64_t seq) {
  return recommender.Serialize() + kSeqCommentPrefix + std::to_string(seq) + "\n";
}

// The one snapshot decoder (Open() and InstallSnapshot()): the final line
// must be `# seq N` with N plain decimal digits, and everything before it a
// v2 store. Decodes into a caller-owned scratch recommender, so a rejected
// snapshot never touches live state.
Status DecodeSnapshot(const std::string& content, SteeringRecommender* out, uint64_t* seq) {
  size_t line = content.rfind(kSeqCommentPrefix);
  if (line == std::string::npos || (line > 0 && content[line - 1] != '\n') ||
      content.back() != '\n') {
    return Status::InvalidArgument("no final `# seq N` watermark line");
  }
  const char* digits = content.data() + line + std::strlen(kSeqCommentPrefix);
  const char* end = content.data() + content.size() - 1;
  auto [parsed_end, ec] = std::from_chars(digits, end, *seq);
  if (ec != std::errc() || parsed_end != end) {
    return Status::InvalidArgument("malformed `# seq N` watermark line");
  }
  return out->Deserialize(content.substr(0, line));
}

// The contiguity rule of every apply path (WAL replay, follower apply):
// after watermark W the next event must carry seq W + 1. Callers skip
// events the watermark already covers; any other seq means lost events.
Status CheckNextSeq(const char* source, uint64_t watermark, uint64_t seq) {
  if (seq == watermark + 1) return Status::OK();
  return Status::FailedPrecondition(std::string(source) + " gap: watermark " +
                                    std::to_string(watermark) + ", next seq " +
                                    std::to_string(seq));
}

}  // namespace

DurableRecommenderStore::DurableRecommenderStore(DurableStoreOptions options)
    : options_(std::move(options)), recommender_(options_.recommender) {}

// No snapshot on destruction on purpose: dropping the object is the chaos
// harness's crash simulation, and a crash does not get to flush. Clean
// shutdown paths call Snapshot() explicitly.
DurableRecommenderStore::~DurableRecommenderStore() = default;

std::string DurableRecommenderStore::snapshot_path() const {
  return options_.dir + "/" + kSnapshotFile;
}

std::string DurableRecommenderStore::wal_path() const {
  return options_.dir + "/" + kWalFile;
}

DurableRecommenderStore::RecoveryInfo DurableRecommenderStore::recovery() const {
  MutexLock lock(mu_);
  return recovery_;
}

Status DurableRecommenderStore::Open() {
  MutexLock lock(mu_);
  if (open_) return Status::FailedPrecondition("store already open");
  recovery_ = RecoveryInfo{};
  if (!durable()) {
    open_ = true;
    PublishViewLocked();
    return Status::OK();
  }

  // 1. Snapshot (atomic write + mandatory crc32 footer + `# seq N` line).
  //    A missing footer, a checksum mismatch or a bad watermark means a
  //    torn or corrupt file and is a hard error.
  Result<std::string> snapshot = ReadFileChecksummed(snapshot_path());
  if (snapshot.ok()) {
    SteeringRecommender loaded(options_.recommender);
    uint64_t seq = 0;
    Status status = DecodeSnapshot(snapshot.value(), &loaded, &seq);
    if (!status.ok()) {
      return Status::InvalidArgument("corrupt snapshot " + snapshot_path() + ": " +
                                     status.message());
    }
    recommender_ = std::move(loaded);
    recovery_.loaded_snapshot = true;
    recovery_.snapshot_seq = seq;
    applied_seq_ = seq;
  } else if (snapshot.status().code() != StatusCode::kNotFound) {
    return snapshot.status();
  }

  // 2. WAL tail: skip the prefix the snapshot has captured (crash between
  //    snapshot write and WAL reset), then replay contiguously — a gap or a
  //    step backwards means lost or foreign events and is a hard error.
  //    Recover() truncates any torn/corrupt suffix in place.
  Result<WriteAheadLog::RecoveryInfo> wal_info = WriteAheadLog::Recover(
      wal_path(), [&](uint64_t seq, std::string_view payload) -> Status {
        if (recovery_.wal_records_replayed == 0 && seq <= applied_seq_) {
          ++recovery_.wal_records_skipped;
          return Status::OK();
        }
        Status status = CheckNextSeq("wal replay", applied_seq_, seq);
        if (!status.ok()) return status;
        Result<Event> event = DecodeEvent(std::string(payload));
        if (!event.ok()) return event.status();
        ApplyEvent(event.value());
        applied_seq_ = seq;
        ++recovery_.wal_records_replayed;
        return Status::OK();
      });
  if (!wal_info.ok()) return wal_info.status();
  recovery_.wal_truncated_bytes = wal_info.value().truncated_bytes;
  events_since_snapshot_ = recovery_.wal_records_replayed;

  Status status = wal_.Open(wal_path(), options_.sync);
  if (!status.ok()) return status;
  open_ = true;
  PublishViewLocked();
  return Status::OK();
}

void DurableRecommenderStore::PublishViewLocked() {
  auto view = std::make_shared<RecommendationView>();
  for (SteeringRecommender::SnapshotEntry& row : recommender_.SnapshotRecommendations()) {
    RuleSignature signature = row.signature;
    view->rows.emplace(signature, std::move(row));
  }
  view_.store(std::move(view), std::memory_order_release);
}

SteeringRecommender::Recommendation DurableRecommenderStore::RecommendFast(
    const RuleSignature& signature) {
  SteeringRecommender::Recommendation rec;
  if (TryRecommendPure(signature, &rec)) return rec;
  // Open breaker (cooldown must tick and be journaled) or pre-Open call:
  // take the slow, locked path.
  locked_recommends_.fetch_add(1, std::memory_order_relaxed);
  return Recommend(signature);
}

Result<DurableRecommenderStore::Event> DurableRecommenderStore::DecodeEvent(
    const std::string& payload) {
  // Payloads are single-line text events:
  //   L <sig-hex> <improvement-pct> <hint-string (may be empty)>
  //   V <sig-hex> <runtime-change-pct>
  //   O <sig-hex> <runtime-change-pct>
  //   R <sig-hex>
  std::istringstream in(payload);
  std::string type, sig_hex;
  if (!(in >> type >> sig_hex)) {
    return Status::InvalidArgument("malformed wal event: " + payload);
  }
  if (type != "L" && type != "V" && type != "O" && type != "R") {
    return Status::InvalidArgument("unknown wal event type: " + payload);
  }
  Event event;
  event.type = type[0];
  event.signature = BitVector256::FromHexString(sig_hex);
  if (event.signature.None() && sig_hex != std::string(64, '0')) {
    return Status::InvalidArgument("bad signature in wal event: " + payload);
  }
  if (event.type == 'R') return event;
  std::string change_text;
  if (!(in >> change_text)) {
    return Status::InvalidArgument("missing change in wal event: " + payload);
  }
  if (!ParseDoubleExact(change_text, &event.change)) {
    return Status::InvalidArgument("bad change in wal event: " + payload);
  }
  if (event.type == 'L') {
    std::string hints;
    std::getline(in, hints);
    if (!hints.empty() && hints.front() == ' ') hints.erase(0, 1);
    Result<RuleConfig> config = ParseHintString(hints);
    if (!config.ok()) return config.status();
    event.config = config.value();
  }
  return event;
}

DurableRecommenderStore::Applied DurableRecommenderStore::ApplyEvent(const Event& event) {
  Applied applied;
  const SteeringRecommender::SnapshotEntry before =
      recommender_.SnapshotRecommendation(event.signature);
  if (event.type == 'R') {
    applied.recommendation = recommender_.Recommend(event.signature);
  } else if (event.type == 'V') {
    recommender_.ObserveValidation(event.signature, event.change);
  } else if (event.type == 'O') {
    recommender_.ObserveOutcome(event.signature, event.change);
  } else {
    applied.changed =
        recommender_.LearnCandidate({event.signature, event.config, event.change});
  }
  // Every event touches only its own group, so comparing that group's
  // serving row tells whether the published view went stale.
  applied.view_stale = !(recommender_.SnapshotRecommendation(event.signature) == before);
  return applied;
}

Status DurableRecommenderStore::JournalAndMark(const std::string& payload) {
  if (durable()) {
    Status status = wal_.Append(applied_seq_ + 1, payload);
    // Fail-stop: an unjournalable event is never applied, preserving the
    // invariant that in-memory state is always recoverable from disk.
    if (!status.ok()) return status;
  }
  ++applied_seq_;
  ++events_since_snapshot_;
  if (mutation_listener_) mutation_listener_(applied_seq_, payload);
  return Status::OK();
}

Result<DurableRecommenderStore::Applied> DurableRecommenderStore::JournalAndApply(
    const std::string& payload) {
  // Decode before journaling: a record in the WAL must be one replay can
  // apply, or every later Open() fails on it.
  Result<Event> event = DecodeEvent(payload);
  if (!event.ok()) return event.status();
  Status status = JournalAndMark(payload);
  if (!status.ok()) return status;
  Applied applied = ApplyEvent(event.value());
  // Most events (an outcome on a closed breaker, a validation run short of
  // adoption) leave what the group serves unchanged; rebuilding the whole
  // view for them would hold mu_ for a copy of every row.
  if (applied.view_stale) PublishViewLocked();
  // qsteer-lint: allow(unchecked-status) snapshot is opportunistic; the WAL stays authoritative
  (void)MaybeSnapshotLocked();
  return applied;
}

Status DurableRecommenderStore::MaybeSnapshotLocked() {
  if (options_.snapshot_interval > 0 && events_since_snapshot_ >= options_.snapshot_interval) {
    return SnapshotLocked();
  }
  return Status::OK();
}

Status DurableRecommenderStore::SnapshotLocked() {
  if (!durable()) return Status::OK();
  Status status =
      WriteFileChecksummed(snapshot_path(), EncodeSnapshot(recommender_, applied_seq_),
                           options_.sync);
  if (!status.ok()) return status;
  ++snapshots_taken_;
  events_since_snapshot_ = 0;
  if (options_.testing_skip_wal_reset_after_snapshot) return Status::OK();
  return wal_.Reset();
}

Status DurableRecommenderStore::Snapshot() {
  MutexLock lock(mu_);
  return SnapshotLocked();
}

bool DurableRecommenderStore::LearnFromAnalysis(const JobAnalysis& analysis) {
  std::optional<SteeringRecommender::CandidateObservation> observation =
      SteeringRecommender::ExtractCandidate(analysis);
  if (!observation.has_value()) return false;
  return LearnCandidate(*observation);
}

// Live mutations journal their event and then apply it through the same
// DecodeEvent + ApplyEvent that WAL replay and ApplyReplicated run, so the
// live store, a recovered store and a follower agree by construction. A
// failed journal append leaves the store untouched (fail-stop).
bool DurableRecommenderStore::LearnCandidate(
    const SteeringRecommender::CandidateObservation& observation) {
  MutexLock lock(mu_);
  Result<Applied> applied = JournalAndApply(
      "L " + observation.signature.ToHexString() + " " +
      FormatDouble(observation.improvement_pct) + " " + ToHintString(observation.config));
  return applied.ok() && applied.value().changed;
}

void DurableRecommenderStore::ObserveValidation(const RuleSignature& signature,
                                                double runtime_change_pct) {
  MutexLock lock(mu_);
  // qsteer-lint: allow(unchecked-status) fail-stop: an unjournalable observation is dropped unapplied
  (void)JournalAndApply("V " + signature.ToHexString() + " " +
                        FormatDouble(runtime_change_pct));
}

void DurableRecommenderStore::ObserveOutcome(const RuleSignature& signature,
                                             double runtime_change_pct) {
  MutexLock lock(mu_);
  // qsteer-lint: allow(unchecked-status) fail-stop: an unjournalable observation is dropped unapplied
  (void)JournalAndApply("O " + signature.ToHexString() + " " +
                        FormatDouble(runtime_change_pct));
}

SteeringRecommender::Recommendation DurableRecommenderStore::Recommend(
    const RuleSignature& signature) {
  MutexLock lock(mu_);
  // Only journal lookups that tick an open breaker's cooldown clock; plain
  // lookups are pure reads and must not bloat the WAL under serving load.
  if (!recommender_.WouldMutateOnRecommend(signature)) return recommender_.Recommend(signature);
  Result<Applied> applied = JournalAndApply("R " + signature.ToHexString());
  if (applied.ok()) return applied.value().recommendation;
  // Unjournalable: serve the default without mutating (fail-stop).
  SteeringRecommender::Recommendation rec;
  rec.config = RuleConfig::Default();
  return rec;
}

bool DurableRecommenderStore::TryRecommendPure(
    const RuleSignature& signature, SteeringRecommender::Recommendation* out) const {
  std::shared_ptr<const RecommendationView> view = view_.load(std::memory_order_acquire);
  if (view == nullptr) return false;
  auto it = view->rows.find(signature);
  if (it == view->rows.end()) {
    fast_recommends_.fetch_add(1, std::memory_order_relaxed);
    *out = SteeringRecommender::Recommendation{};
    out->config = RuleConfig::Default();
    return true;
  }
  if (it->second.mutates_on_recommend) return false;
  fast_recommends_.fetch_add(1, std::memory_order_relaxed);
  *out = it->second.recommendation;
  return true;
}

void DurableRecommenderStore::SetMutationListener(MutationListener listener) {
  MutexLock lock(mu_);
  mutation_listener_ = std::move(listener);
}

Status DurableRecommenderStore::ApplyReplicated(uint64_t seq, const std::string& payload) {
  MutexLock lock(mu_);
  if (!open_) return Status::FailedPrecondition("store not open");
  if (seq <= applied_seq_) {
    // Idempotent skip: this entry is already part of the local state
    // (overlapping tail segment, duplicate shipment after a retry).
    ++replicated_skipped_;
    return Status::OK();
  }
  // A gap is the leader's cue to fall back to a snapshot install.
  Status status = CheckNextSeq("replication", applied_seq_, seq);
  if (!status.ok()) return status;
  Result<Applied> applied = JournalAndApply(payload);
  if (!applied.ok()) return applied.status();
  ++replicated_applied_;
  return Status::OK();
}

std::string DurableRecommenderStore::SerializeForReplication() const {
  MutexLock lock(mu_);
  return EncodeSnapshot(recommender_, applied_seq_);
}

Status DurableRecommenderStore::InstallSnapshot(const std::string& content) {
  MutexLock lock(mu_);
  if (!open_) return Status::FailedPrecondition("store not open");
  // Decode into a scratch recommender first; a corrupt install must leave
  // the current state untouched.
  SteeringRecommender incoming(options_.recommender);
  uint64_t seq = 0;
  Status status = DecodeSnapshot(content, &incoming, &seq);
  if (!status.ok()) {
    return Status::InvalidArgument("corrupt snapshot install: " + status.message());
  }
  if (durable()) {
    // WAL first, snapshot second — deliberately the inverse of the
    // periodic SnapshotLocked() ordering. An install may REWIND the local
    // watermark (a rejoining ex-leader discards its unacknowledged
    // suffix), so the local WAL can hold entries with seq beyond the
    // incoming snapshot's that must never replay on top of it. Resetting
    // the WAL first means a crash in the window leaves the old on-disk
    // snapshot + empty WAL: a consistent, merely stale state that the next
    // catch-up repairs. Snapshot-first would leave installed-state +
    // divergent-tail — silently wrong after recovery.
    status = wal_.Reset();
    if (!status.ok()) return status;
    if (!options_.testing_skip_snapshot_write_after_install_reset) {
      status = WriteFileChecksummed(snapshot_path(), content, options_.sync);
      if (!status.ok()) return status;
      ++snapshots_taken_;
    }
  }
  recommender_ = std::move(incoming);
  applied_seq_ = seq;
  events_since_snapshot_ = 0;
  ++snapshot_installs_;
  PublishViewLocked();
  return Status::OK();
}

int64_t DurableRecommenderStore::replicated_applied() const {
  MutexLock lock(mu_);
  return replicated_applied_;
}

int64_t DurableRecommenderStore::replicated_skipped() const {
  MutexLock lock(mu_);
  return replicated_skipped_;
}

int64_t DurableRecommenderStore::snapshot_installs() const {
  MutexLock lock(mu_);
  return snapshot_installs_;
}

std::vector<SteeringRecommender::ValidationRequest>
DurableRecommenderStore::PendingValidations() const {
  MutexLock lock(mu_);
  return recommender_.PendingValidations();
}

std::string DurableRecommenderStore::SerializeState() const {
  MutexLock lock(mu_);
  return recommender_.Serialize();
}

int DurableRecommenderStore::num_groups() const {
  MutexLock lock(mu_);
  return recommender_.num_groups();
}

int DurableRecommenderStore::num_serving() const {
  MutexLock lock(mu_);
  return recommender_.num_serving();
}

int DurableRecommenderStore::num_pending_validation() const {
  MutexLock lock(mu_);
  return recommender_.num_pending_validation();
}

int DurableRecommenderStore::num_retired() const {
  MutexLock lock(mu_);
  return recommender_.num_retired();
}

int DurableRecommenderStore::num_rollbacks() const {
  MutexLock lock(mu_);
  return recommender_.num_rollbacks();
}

int DurableRecommenderStore::num_open() const {
  MutexLock lock(mu_);
  return recommender_.num_open();
}

uint64_t DurableRecommenderStore::applied_seq() const {
  MutexLock lock(mu_);
  return applied_seq_;
}

int64_t DurableRecommenderStore::wal_lag() const {
  MutexLock lock(mu_);
  return events_since_snapshot_;
}

int64_t DurableRecommenderStore::snapshots_taken() const {
  MutexLock lock(mu_);
  return snapshots_taken_;
}

}  // namespace qsteer
