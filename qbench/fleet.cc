// `fleet-mixed`: the replicated tier with writes beside reads. A closed
// loop of 3 client threads drives a 3-replica durable ReplicationFleet with
// FleetOptions defaults (sync = false, snapshot every 64 events). Traffic
// is zipf-skewed over the default-plan signatures of the day's jobs, learned
// and validated in set-up: 70% Serve reads, 15% ObserveOutcome and 15%
// ObserveValidation writes.
//
// Client thread t owns the signatures whose index is t mod 3, so each
// signature's mutations arrive in one thread's order and a replay of the
// per-thread acknowledged-write journals reproduces the fleet's state.
//
// Traced run: the same op streams again, through the fleet and through a
// standalone DurableRecommenderStore with the same options, so the share of
// a fleet write spent shipping (replication + transport) is measured.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "common/hash.h"
#include "optimizer/optimizer.h"
#include "service/replication.h"
#include "workload/generator.h"

namespace qbench {
namespace {

using namespace qsteer;

constexpr int kClients = 3;
constexpr int kReadPct = 70;
constexpr int kOutcomePct = 15;  // the remaining 15% are validations
constexpr int64_t kReplayOpsPerClient = 20000;
/// Ops per client the sample buffers are sized for.
constexpr size_t kReserveOps = 1 << 20;

/// The default configuration with its `n`-th toggleable rule flipped.
RuleConfig AltConfig(size_t n) {
  auto flipped = [](int id) {
    RuleConfig config = RuleConfig::Default();
    if (config.IsEnabled(id)) {
      config.Disable(id);
    } else {
      config.Enable(id);
    }
    return config;
  };
  static const std::vector<int> toggleable = [&] {
    std::vector<int> ids;
    for (int id = 0; id < 256; ++id) {
      if (flipped(id) != RuleConfig::Default()) ids.push_back(id);
    }
    return ids;
  }();
  return flipped(toggleable[n % toggleable.size()]);
}

/// One acknowledged write, kept for the golden replay.
struct Write {
  char type;  // 'L' learn, 'V' validation, 'O' outcome
  size_t group;
  double value;
};

void ApplyWrite(DurableRecommenderStore* store, const std::vector<RuleSignature>& sigs,
                const Write& w) {
  switch (w.type) {
    case 'L': {
      SteeringRecommender::CandidateObservation observation;
      observation.signature = sigs[w.group];
      observation.config = AltConfig(w.group);
      observation.improvement_pct = w.value;
      store->LearnCandidate(observation);
      break;
    }
    case 'V':
      store->ObserveValidation(sigs[w.group], w.value);
      break;
    default:
      store->ObserveOutcome(sigs[w.group], w.value);
      break;
  }
}

struct Setup {
  std::vector<RuleSignature> sigs;
  std::unique_ptr<ReplicationFleet> fleet;
  std::vector<Write> learned;  // acknowledged set-up writes, in order
  FleetOptions fleet_options;
  int generation = 0;  // set-ups so far; each gets its own directory
};

void DoSetup(const Options& options, Setup* s, RunResult* result) {
  Workload workload(WorkloadSpec::WorkloadB(kWorkloadScale));
  Optimizer optimizer(&workload.catalog());
  std::vector<std::string> seen;
  s->sigs.clear();
  for (const Job& job : workload.JobsForDay(kDay)) {
    Result<CompiledPlan> plan = optimizer.Compile(job, RuleConfig::Default());
    if (!plan.ok()) continue;
    std::string hex = plan.value().signature.ToHexString();
    if (std::find(seen.begin(), seen.end(), hex) != seen.end()) continue;
    seen.push_back(hex);
    s->sigs.push_back(plan.value().signature);
  }
  s->fleet_options = FleetOptions{};
  s->fleet_options.dir = FreshDir(options, "fleet-" + std::to_string(s->generation++));
  s->fleet = std::make_unique<ReplicationFleet>(s->fleet_options);
  result->Check(s->fleet->Start().ok(), "fleet starts");
  s->learned.clear();
  for (size_t g = 0; g < s->sigs.size(); ++g) {
    const double improvement = -8.0 - static_cast<double>(g % 7);
    SteeringRecommender::CandidateObservation observation;
    observation.signature = s->sigs[g];
    observation.config = AltConfig(g);
    observation.improvement_pct = improvement;
    if (s->fleet->LearnCandidate(observation).ok()) s->learned.push_back({'L', g, improvement});
    for (int v = 0; v < RecommenderOptions{}.validation_runs; ++v) {
      if (s->fleet->ObserveValidation(s->sigs[g], improvement + 1.0).ok()) {
        s->learned.push_back({'V', g, improvement + 1.0});
      }
    }
  }
}

/// Op `i` of client `t`: a zipf-skewed pick over the client's own groups
/// (weight 1/(rank+1)) and a read/write kind, pure functions of the seed.
/// Outcomes alternate regressed/improved per group, so they change state
/// without ever opening a breaker (which would turn reads into writes).
struct Op {
  int kind;  // 0 read, 1 outcome, 2 validation
  size_t group;
  double value;
};

class OpStream {
 public:
  OpStream(uint64_t seed, int client, size_t num_groups) : seed_(seed), client_(client) {
    for (size_t g = static_cast<size_t>(client); g < num_groups; g += kClients) {
      groups_.push_back(g);
    }
    double total = 0.0;
    for (size_t r = 0; r < groups_.size(); ++r) cum_.push_back(total += 1.0 / (r + 1.0));
  }
  Op Next() {
    uint64_t h = Mix64(HashCombine(HashCombine(seed_, static_cast<uint64_t>(client_)), i_++));
    double u = static_cast<double>(h >> 11) * 0x1p-53 * cum_.back();
    size_t r = static_cast<size_t>(std::lower_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
    Op op;
    op.group = groups_[std::min(r, groups_.size() - 1)];
    int pct = static_cast<int>((h >> 3) % 100);
    op.kind = pct < kReadPct ? 0 : pct < kReadPct + kOutcomePct ? 1 : 2;
    if (op.kind == 1) {
      bool& regressed = last_regressed_[op.group];
      op.value = regressed ? -3.0 - static_cast<double>(h % 5) : 6.0 + static_cast<double>(h % 5);
      regressed = !regressed;
    } else {
      op.value = -2.0 - static_cast<double>(h % 5);
    }
    return op;
  }

 private:
  uint64_t seed_;
  int client_;
  uint64_t i_ = 0;
  std::vector<size_t> groups_;
  std::vector<double> cum_;
  std::map<size_t, bool> last_regressed_;
};

struct ClientStats {
  std::vector<Sample> read_s;  // at op start
  std::vector<Sample> write_s;
  std::vector<Write> acked;
  int64_t failed = 0;
  int64_t steered = 0;

  /// Buffers are reserved up front (untouched pages cost no memory), so
  /// they never reallocate mid-run and peak RSS tracks the fleet.
  ClientStats() {
    read_s.reserve(kReserveOps);
    write_s.reserve(kReserveOps);
    acked.reserve(kReserveOps);
  }
};

/// Runs client `t`'s stream: until `deadline_ns` when `ops` < 0, else for
/// exactly `ops` operations, against the fleet, or against `store` (a
/// standalone store with the same options) when it is set.
void RunClient(Setup* s, OpStream* stream, int t, int64_t deadline_ns, int64_t ops,
               DurableRecommenderStore* store, Tracer* tracer, ClientStats* out) {
  for (int64_t i = 0; ops < 0 ? NowNs() < deadline_ns : i < ops; ++i) {
    Op op = stream->Next();
    const RuleSignature& sig = s->sigs[op.group];
    const uint64_t trace = static_cast<uint64_t>(t) << 40 | static_cast<uint64_t>(i);
    Tracer::Scope root(tracer, t, "op", trace);
    int64_t start = NowNs();
    bool ok = true;
    if (op.kind == 0) {
      Tracer::Scope span(tracer, t, store ? "recommender.recommend" : "replication.serve", trace);
      if (store != nullptr) {
        out->steered += store->RecommendFast(sig).is_default ? 0 : 1;
      } else {
        ReplicationFleet::ServeResult serve;
        ok = s->fleet->Serve(sig, &serve).ok();
        out->steered += ok && !serve.recommendation.is_default ? 1 : 0;
      }
      out->read_s.push_back({start, static_cast<double>(NowNs() - start) * 1e-9});
    } else {
      Tracer::Scope span(tracer, t, store ? "store.append" : "replication.write", trace);
      if (store != nullptr) {
        if (op.kind == 1) {
          store->ObserveOutcome(sig, op.value);
        } else {
          store->ObserveValidation(sig, op.value);
        }
      } else {
        ok = (op.kind == 1 ? s->fleet->ObserveOutcome(sig, op.value)
                           : s->fleet->ObserveValidation(sig, op.value))
                 .ok();
        if (ok) out->acked.push_back({op.kind == 1 ? 'O' : 'V', op.group, op.value});
      }
      out->write_s.push_back({start, static_cast<double>(NowNs() - start) * 1e-9});
    }
    if (!ok) ++out->failed;
  }
}

/// All clients at once; returns wall seconds.
double RunClients(Setup* s, std::vector<OpStream>* streams, int64_t deadline_ns, int64_t ops,
                  DurableRecommenderStore* store, Tracer* tracer,
                  std::vector<ClientStats>* stats) {
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      RunClient(s, &(*streams)[static_cast<size_t>(t)], t, deadline_ns, ops, store, tracer,
                &(*stats)[static_cast<size_t>(t)]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return SecondsSince(start);
}

std::vector<Sample> Concat(const std::vector<ClientStats>& stats, bool reads) {
  std::vector<Sample> out;
  for (const ClientStats& c : stats) {
    const std::vector<Sample>& v = reads ? c.read_s : c.write_s;
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

std::vector<OpStream> Streams(uint64_t seed, size_t groups) {
  std::vector<OpStream> streams;
  for (int t = 0; t < kClients; ++t) streams.emplace_back(seed, t, groups);
  return streams;
}

/// Convergence plus zero lost acknowledged writes: every replica holds
/// exactly the acknowledged writes (count and bytes of a golden replay).
void CheckFleet(const Options& options, Setup* s, const std::vector<std::vector<Write>>& journals,
                RunResult* result) {
  result->Check(s->fleet->CatchUpAll().ok(), "fleet catches up");
  std::string detail;
  result->Check(s->fleet->CheckConvergence(&detail).ok(), "fleet converges " + detail);
  std::vector<Write> acked = s->learned;
  for (const std::vector<Write>& journal : journals) {
    acked.insert(acked.end(), journal.begin(), journal.end());
  }
  if (options.inject == "drop-mutation" && !acked.empty()) acked.pop_back();
  DurableRecommenderStore golden;
  result->Check(golden.Open().ok(), "golden store opens");
  for (const Write& w : acked) ApplyWrite(&golden, s->sigs, w);
  const std::string want = golden.SerializeState();
  for (int r = 0; r < s->fleet->num_replicas(); ++r) {
    std::shared_ptr<DurableRecommenderStore> replica =
        s->fleet->replica_store(static_cast<uint32_t>(r));
    result->Check(replica->applied_seq() == acked.size() && replica->SerializeState() == want,
                  "replica " + std::to_string(r) + " holds every acknowledged write (" +
                      std::to_string(replica->applied_seq()) + " applied, " +
                      std::to_string(acked.size()) + " acknowledged)");
  }
}

}  // namespace

RunResult RunFleetMixed(const Options& options) {
  RunResult result;
  Setup s;
  double setup_s = MedianSetupSeconds(
      7, [&] { s.fleet.reset(); }, [&] { DoSetup(options, &s, &result); });
  result.Check(s.sigs.size() >= kClients, "enough learned signatures for every client");

  std::vector<OpStream> streams = Streams(options.seed, s.sigs.size());
  std::vector<ClientStats> loop(kClients);
  FleetStatus before = s.fleet->status();
  const int64_t snaps_before = s.fleet->replica_store(s.fleet->leader_id())->snapshots_taken();
  const bool rss_reset = ResetPeakRss();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(options.seconds * 1e9);
  const double wall_s = RunClients(&s, &streams, deadline, -1, nullptr, nullptr, &loop);
  SetPeakRss(rss_reset, &result);
  FleetStatus after = s.fleet->status();
  const int64_t snaps_window =
      s.fleet->replica_store(s.fleet->leader_id())->snapshots_taken() - snaps_before;

  const std::vector<Sample> read_samples = Concat(loop, true);
  const std::vector<Sample> write_samples = Concat(loop, false);
  const std::vector<double> reads = Values(read_samples);
  const std::vector<double> writes = Values(write_samples);
  int64_t failed = 0;
  for (const ClientStats& c : loop) failed += c.failed;
  const int64_t ops = static_cast<int64_t>(reads.size() + writes.size());
  result.Attempt(ops);
  result.Fail(failed);

  // Throughput is the median over 1-second windows, so a host stall moves
  // one window's figure; latencies are whole-run percentiles, so rare slow
  // writes (snapshots, stalls) count wherever they fall.
  std::vector<int64_t> op_starts;
  for (const std::vector<Sample>* samples : {&read_samples, &write_samples}) {
    for (const Sample& sample : *samples) op_starts.push_back(sample.t_ns);
  }
  const double ops_per_s = MedianWindowRate(op_starts, start, deadline, 1.0);
  const double write_p50 = Percentile(writes, 0.5);
  const double write_p99 = Percentile(writes, 0.99);
  const double read_p99 = Percentile(reads, 0.99);
  const double read_q = TailQuantile(reads.size());
  const double write_q = TailQuantile(writes.size());
  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", ops_per_s, "1/s");
  result.Set("replication.write_us_p50", write_p50 * 1e6, "us");
  result.Set("replication.write_us_p99", write_p99 * 1e6, "us");
  result.Set("replication.serve_us_p99", read_p99 * 1e6, "us");
  char line[320];
  std::snprintf(line, sizeof(line),
                "  %zu signatures; %lld ops in %.2f s; fleet_ops_per_s %.1f (1-s window median); "
                "read_p99_us %.3f write_p50_us %.3f write_p99_us %.3f; read p%g %.3f us "
                "(n=%zu), write p%g %.3f us (n=%zu)",
                s.sigs.size(), (long long)ops, wall_s, ops_per_s, read_p99 * 1e6, write_p50 * 1e6,
                write_p99 * 1e6, read_q * 100, Percentile(reads, read_q) * 1e6, reads.size(),
                write_q * 100, Percentile(writes, write_q) * 1e6, writes.size());
  result.Note(line);

  std::vector<std::vector<Write>> journals;
  for (const ClientStats& c : loop) journals.push_back(c.acked);

  if (options.trace) {
    const double n_writes = static_cast<double>(writes.size());
    int64_t steered = 0;
    for (const ClientStats& c : loop) steered += c.steered;
    result.Set("replication.frames_per_write",
               n_writes > 0 ? (after.transport_frames - before.transport_frames) / n_writes : 0.0,
               "count");
    result.Set("store.snapshots", static_cast<double>(snaps_window), "count");
    result.Set("replication.tail_ships", static_cast<double>(after.tail_ships - before.tail_ships),
               "count");
    result.Set("replication.snapshot_ships",
               static_cast<double>(after.snapshot_ships - before.snapshot_ships), "count");
    result.Set("recommender.steered_frac",
               reads.empty() ? 0.0 : static_cast<double>(steered) / reads.size(), "frac");

    // Fleet replay, untraced then traced, continuing each client's stream.
    std::vector<ClientStats> twin(kClients), fleet_traced(kClients);
    Tracer off(false, kClients);
    const double untraced_s =
        RunClients(&s, &streams, 0, kReplayOpsPerClient, nullptr, &off, &twin);
    Tracer tracer(true, kClients);
    const double traced_s =
        RunClients(&s, &streams, 0, kReplayOpsPerClient, nullptr, &tracer, &fleet_traced);
    for (const std::vector<ClientStats>* phase : {&twin, &fleet_traced}) {
      for (size_t t = 0; t < journals.size(); ++t) {
        const std::vector<Write>& acked = (*phase)[t].acked;
        journals[t].insert(journals[t].end(), acked.begin(), acked.end());
      }
    }

    // The same ops against a standalone store with the same options.
    DurableStoreOptions store_options;
    store_options.dir = FreshDir(options, "fleet-standalone");
    store_options.sync = s.fleet_options.sync;
    store_options.snapshot_interval = s.fleet_options.snapshot_interval;
    store_options.recommender = s.fleet_options.recommender;
    DurableRecommenderStore standalone(store_options);
    result.Check(standalone.Open().ok(), "standalone store opens");
    for (const Write& w : s.learned) ApplyWrite(&standalone, s.sigs, w);
    std::vector<OpStream> standalone_streams = Streams(options.seed, s.sigs.size());
    std::vector<ClientStats> alone(kClients);
    const uint64_t seq0 = standalone.applied_seq();
    RunClients(&s, &standalone_streams, 0, kReplayOpsPerClient, &standalone, &tracer, &alone);

    std::vector<double> alone_writes = tracer.Durations("store.append");
    const double fleet_write = Mean(tracer.Durations("replication.write"));
    result.Set("replication.ship_frac",
               fleet_write > 0 ? (fleet_write - Mean(alone_writes)) / fleet_write : 0.0, "frac");
    result.Set("recommender.recommend_us_p50",
               Percentile(tracer.Durations("recommender.recommend"), 0.5) * 1e6, "us");
    result.Set("store.append_us_p50", Percentile(alone_writes, 0.5) * 1e6, "us");
    result.Set("store.append_us_p99", Percentile(alone_writes, 0.99) * 1e6, "us");
    result.Set("store.wal_appends", static_cast<double>(standalone.applied_seq() - seq0), "count");
    std::vector<double> snapshot_s;
    for (int k = 0; k < 5; ++k) {
      Tracer::Scope root(&tracer, 0, "op", 0);
      Tracer::Scope span(&tracer, 0, "store.snapshot", 0);
      Clock::time_point start = Clock::now();
      result.Check(standalone.Snapshot().ok(), "standalone snapshot");
      snapshot_s.push_back(SecondsSince(start));
    }
    result.Set("store.snapshot_ms_p50", Median(snapshot_s) * 1e3, "ms");
    ReportTraceSummary(tracer, traced_s, untraced_s, &result);
    std::string path = options.out_dir + "/trace-fleet-mixed-" + std::to_string(options.seed) +
                       ".jsonl";
    result.Check(tracer.WriteJsonLines(path), "trace written to " + path);
  }

  CheckFleet(options, &s, journals, &result);
  return result;
}

}  // namespace qbench
