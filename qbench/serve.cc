// `serve-hot`: the online path. An open loop at a fixed offered rate drives
// SteeringService::Submit (3 service workers, 1 generator thread) with
// recurring jobs whose plans are already cached and whose groups hold
// validated recommendations; each steered request journals an outcome
// through the durable store (sync = false, see MakeServiceOptions).
//
// Phases, all inside the measured window:
//   1. open loop at kRatePerSecond for 3/4 of the window; every request is
//      timed from its due time, so a stall also charges the requests queued
//      behind it, and a refused request counts as missing the latency limit;
//   2. saturation for the last 1/4: a closed loop keeping kSaturationDepth
//      requests in flight, whose completion rate is the service's capacity.
// The traced run adds a rate ladder (service.max_rps) and a replay of the
// same request stream through the public calls one request makes.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "common.h"
#include "common/hash.h"
#include "service/steering_service.h"
#include "workload/generator.h"

namespace qbench {
namespace {

using namespace qsteer;

constexpr int kServiceWorkers = 3;
/// Offered rate of the open loop, from measurements on the reference 4-core
/// VM (qbench/README.md): under a tenth of the service's capacity there
/// (25-33k req/s, the saturation phase's ops_per_s), so the loop stays
/// below the knee of the latency curve even when the host runs slow.
constexpr double kRatePerSecond = 2000.0;
/// p99 latency limit of the open loop (and of each ladder rung).
constexpr double kLatencyLimitS = 0.001;
/// Generator lag beyond which a run is marked as not honest open loop.
constexpr double kLagBoundS = 0.001;
/// Requests kept in flight by the saturation client: enough to keep every
/// worker busy for ~1.5 ms while the client waits for the oldest reply.
constexpr int kSaturationDepth = 48;
constexpr double kWarmUpS = 1.0;
constexpr int kQueueCapacity = 1024;
/// Completions per second the saturation buffers are sized for (well above
/// any rate this service reaches on a 4-core host).
constexpr double kSaturationReserve = 200000;
/// Learning analyzes each job of the day with a reduced candidate budget so
/// set-up stays a few seconds.
constexpr int kLearnCandidates = 40;
/// Offered rates of the max_rps ladder: from a quarter of the open loop's
/// rate, so the ladder also shows whether that rate meets the limit.
const double kLadderMultiples[] = {0.25, 0.5, 1, 2, 4, 8, 16};

struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Optimizer> optimizer;
  std::unique_ptr<ExecutionSimulator> simulator;
  std::unique_ptr<SteeringService> service;
  std::vector<Job> pool;  // the day's jobs; requests draw from it uniformly
  std::string dir;
  int generation = 0;  // set-ups so far; each gets its own directory
};

ServiceOptions MakeServiceOptions(const std::string& dir, uint64_t seed) {
  ServiceOptions options;
  options.num_workers = kServiceWorkers;
  options.seed = seed;
  // Reanalysis would compile inside the timed window; the serving path
  // under test never needs it (no breaker opens on validated groups).
  options.enable_reanalysis = false;
  options.store.dir = dir;  // snapshot_interval = 256 (default)
  // No fsync per journaled outcome: on a disk shared with other tenants the
  // fsync latency moved serve figures up to tenfold between runs minutes
  // apart, which no bound can absorb. The WAL append itself is still made.
  options.store.sync = false;
  // Admission queue of 1024 rather than 64: a ~150-ms I/O stall of the
  // shared disk (a snapshot holding the store) otherwise has requests
  // refused at 2000 req/s. The stall still shows as latency.
  options.queue_capacity = kQueueCapacity;
  return options;
}

void DoSetup(const Options& options, Setup* s, RunResult* result) {
  s->workload = std::make_unique<Workload>(WorkloadSpec::WorkloadB(kWorkloadScale));
  s->optimizer = std::make_unique<Optimizer>(&s->workload->catalog());
  s->simulator = std::make_unique<ExecutionSimulator>(&s->workload->catalog());
  s->pool = s->workload->JobsForDay(kDay);
  s->dir = FreshDir(options, "serve-store-" + std::to_string(s->generation++));
  s->service = std::make_unique<SteeringService>(s->optimizer.get(), s->simulator.get(),
                                                 MakeServiceOptions(s->dir, options.seed));
  result->Check(s->service->Start().ok(), "service starts");

  // Learn: analyze the day offline, then validate every candidate so its
  // group serves. Learning is seed-independent, so every seed serves the
  // same steered groups and only the request stream varies.
  PipelineOptions learn;
  learn.seed = kDefaultSeed;
  learn.num_threads = 4;
  learn.max_candidate_configs = kLearnCandidates;
  SteeringPipeline pipeline(s->optimizer.get(), s->simulator.get(), learn);
  for (const JobAnalysis& analysis : pipeline.AnalyzeJobs(s->pool)) {
    s->service->store().LearnFromAnalysis(analysis);
  }
  const int runs = RecommenderOptions{}.validation_runs;
  for (const SteeringRecommender::ValidationRequest& request :
       s->service->store().PendingValidations()) {
    for (int v = 0; v < runs; ++v) s->service->store().ObserveValidation(request.signature, -10.0);
  }
  // Warm: every plan a request can need is compiled into the service's
  // cache before the window opens.
  const SteeringPipeline& serving = s->service->pipeline();
  for (const Job& job : s->pool) {
    Result<CompiledPlan> plan = serving.CompileCached(job, RuleConfig::Default());
    if (!plan.ok()) continue;
    SteeringRecommender::Recommendation rec =
        s->service->store().RecommendFast(plan.value().signature);
    if (!rec.is_default) (void)serving.CompileCached(job, rec.config);
  }
}

/// Pool index of request `i`: uniform over the pool, a pure function of
/// (seed, i).
size_t RequestJob(uint64_t seed, int64_t i, size_t pool) {
  return static_cast<size_t>(Mix64(HashCombine(seed, static_cast<uint64_t>(i))) % pool);
}

struct Inflight {
  int64_t due_ns;
  int64_t sent_ns;
  std::future<ServiceReply> reply;
};

struct LoopStats {
  std::vector<double> from_due_s;   // refused requests count as kRefusedS
  std::vector<double> from_send_s;  // accepted requests only
  std::vector<int64_t> done_ns;     // completion times
  std::vector<double> lag_s;        // send time minus due time
  int64_t sent = 0;
  int64_t refused = 0;
  int64_t failed = 0;
  int64_t steered = 0;
  int64_t completed = 0;
  int64_t start_ns = 0;
  double wall_s = 0.0;

  /// Reserves room for `n` requests up front (untouched pages cost no
  /// memory), so the harness's own buffers never reallocate mid-run and
  /// peak RSS tracks the program, not vector doubling.
  LoopStats(size_t n, bool latencies) {
    done_ns.reserve(n);
    if (!latencies) return;
    from_due_s.reserve(n);
    from_send_s.reserve(n);
    lag_s.reserve(n);
  }
};

constexpr double kRefusedS = 1e3;

/// Collects finished requests (all of them when `block`). Latencies are
/// kept for open loops only; saturation just counts completions.
void Reap(std::deque<Inflight>* inflight, LoopStats* stats, bool block, bool latencies = true) {
  for (auto it = inflight->begin(); it != inflight->end();) {
    if (!block && it->reply.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++it;
      continue;
    }
    ServiceReply reply = it->reply.get();
    int64_t now = NowNs();
    stats->done_ns.push_back(now);
    if (latencies) {
      stats->from_due_s.push_back(static_cast<double>(now - it->due_ns) * 1e-9);
      stats->from_send_s.push_back(static_cast<double>(now - it->sent_ns) * 1e-9);
    }
    ++stats->completed;
    if (!reply.status.ok()) ++stats->failed;
    if (reply.steered) ++stats->steered;
    it = inflight->erase(it);
  }
}

/// Open loop at `rate` for `seconds`: request i is due at start + i / rate.
LoopStats OpenLoop(Setup* s, uint64_t seed, double rate, double seconds, int64_t first) {
  const int64_t n = static_cast<int64_t>(rate * seconds);
  LoopStats stats(static_cast<size_t>(n), true);
  std::deque<Inflight> inflight;
  const int64_t start = stats.start_ns = NowNs();
  for (int64_t i = 0; i < n; ++i) {
    const int64_t due = start + static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate);
    // Poll for completions until the next request is due: a completion is
    // timed when it is seen, so the poll must not sleep (on a VM, a thread
    // that sleeps can wake milliseconds late once its vCPU has halted).
    while (NowNs() < due) {
      Reap(&inflight, &stats, false);
      std::this_thread::yield();
    }
    ServiceRequest request;
    request.job = s->pool[RequestJob(seed, first + i, s->pool.size())];
    Inflight item{due, NowNs(), {}};
    stats.lag_s.push_back(static_cast<double>(item.sent_ns - due) * 1e-9);
    ++stats.sent;
    if (s->service->Submit(request, &item.reply) != AdmitResult::kAccepted) {
      ++stats.refused;
      stats.from_due_s.push_back(kRefusedS);
      continue;
    }
    inflight.push_back(std::move(item));
  }
  Reap(&inflight, &stats, true);
  stats.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return stats;
}

/// Closed loop keeping `depth` requests in flight for `seconds`.
LoopStats Saturate(Setup* s, uint64_t seed, int depth, double seconds, int64_t first) {
  LoopStats stats(static_cast<size_t>(seconds * kSaturationReserve), false);
  std::deque<Inflight> inflight;
  const int64_t start = stats.start_ns = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t i = 0;
  while (NowNs() < end) {
    while (static_cast<int>(inflight.size()) < depth) {
      ServiceRequest request;
      request.job = s->pool[RequestJob(seed, first + i++, s->pool.size())];
      Inflight item{NowNs(), NowNs(), {}};
      ++stats.sent;
      if (s->service->Submit(request, &item.reply) != AdmitResult::kAccepted) {
        ++stats.refused;
        break;
      }
      inflight.push_back(std::move(item));
    }
    // Sleep until the oldest reply (or the end of the phase) rather than
    // poll: the queue holds ~1.5 ms of work, more than the client takes to
    // wake, and a polling client would keep a fourth vCPU busy beside the
    // three workers.
    if (!inflight.empty()) {
      inflight.front().reply.wait_until(Clock::time_point(std::chrono::nanoseconds(end)));
    }
    Reap(&inflight, &stats, false, false);
  }
  Reap(&inflight, &stats, true, false);
  stats.wall_s = static_cast<double>(NowNs() - start) * 1e-9;
  return stats;
}

/// Highest ladder rate whose p99 (from due time) meets the limit without a
/// growing backlog, in `rung_s`-second rungs; 0 when even the first fails.
double MaxRate(Setup* s, uint64_t seed, double rung_s, int64_t first, RunResult* result) {
  double best = 0.0;
  for (double multiple : kLadderMultiples) {
    const double rate = multiple * kRatePerSecond;
    LoopStats rung = OpenLoop(s, seed, rate, rung_s, first);
    first += rung.sent;
    // Backlog: the loop drains everything it sent; a rung whose drain
    // takes more than a tenth of the rung has been falling behind.
    const bool backlog = rung.wall_s > rung_s * 1.1;
    const double tail = Percentile(rung.from_due_s, 0.99);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  ladder %6.0f req/s: p99 %.4f ms, drained in %.3f s, %lld refused", rate,
                  tail * 1e3, rung.wall_s, (long long)rung.refused);
    result->Note(line);
    if (rung.refused > 0 || backlog || tail > kLatencyLimitS) break;
    best = static_cast<double>(rung.completed) / rung.wall_s;
  }
  return best;
}

// ---------------------------------------------------------------------------
// Traced replay of the request stream on kServiceWorkers threads.

struct ReplayOut {
  double wall_s = 0.0;
  std::vector<double> layer_sum_s;  // per request: time inside layer calls
};

ReplayOut Replay(Setup* s, uint64_t seed, int64_t requests, Tracer* tracer) {
  const SteeringPipeline& pipeline = s->service->pipeline();
  DurableRecommenderStore& store = s->service->store();
  std::atomic<int64_t> next{0};
  std::vector<std::vector<double>> sums(kServiceWorkers);
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kServiceWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = next.fetch_add(1); i < requests; i = next.fetch_add(1)) {
        const Job& job = s->pool[RequestJob(seed, i, s->pool.size())];
        uint64_t nonce = HashCombine(seed, HashString(job.name));
        const uint64_t trace = static_cast<uint64_t>(i);
        Tracer::Scope root(tracer, t, "request", trace);
        double inside = 0.0;  // time spent inside layer calls
        auto timed = [&](const char* name, auto&& call) {
          Tracer::Scope span(tracer, t, name, trace);
          auto value = call();
          inside += span.seconds();
          return value;
        };
        Result<CompiledPlan> plan = timed("compile_cache.probe", [&] {
          return pipeline.CompileCached(job, RuleConfig::Default());
        });
        if (!plan.ok()) continue;
        const RuleSignature& signature = plan.value().signature;
        ExecMetrics base = timed("exec.execute", [&] {
          return pipeline.ExecuteWithRetry(job, plan.value().root, nonce);
        });
        SteeringRecommender::Recommendation rec =
            timed("recommender.recommend", [&] { return store.RecommendFast(signature); });
        if (!rec.is_default) {
          Result<CompiledPlan> steered = timed(
              "compile_cache.probe", [&] { return pipeline.CompileCached(job, rec.config); });
          if (steered.ok()) {
            ExecMetrics run = timed("exec.execute", [&] {
              return pipeline.ExecuteWithRetry(job, steered.value().root,
                                               HashCombine(nonce, 0x9e3779b97f4a7c15ULL));
            });
            double change =
                base.runtime > 0 ? (run.runtime - base.runtime) / base.runtime * 100.0 : 0.0;
            timed("store.append", [&] {
              store.ObserveOutcome(signature, change);
              return true;
            });
          }
        }
        sums[static_cast<size_t>(t)].push_back(inside);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ReplayOut out;
  out.wall_s = SecondsSince(start);
  for (const std::vector<double>& v : sums) {
    out.layer_sum_s.insert(out.layer_sum_s.end(), v.begin(), v.end());
  }
  return out;
}

/// Kill the service, reopen the store from its directory: the recovered
/// state must be byte-identical to the acknowledged pre-kill state.
void CheckRecovery(const Options& options, Setup* s, RunResult* result) {
  s->service->Drain();
  std::string before = s->service->store().SerializeState();
  uint64_t before_seq = s->service->store().applied_seq();
  std::string wal = s->service->store().wal_path();
  std::string snapshot = s->service->store().snapshot_path();
  s->service->Kill();
  s->service.reset();
  if (options.inject == "drop-mutation") {
    // Lose the last acknowledged mutation: tear the WAL's final frame (or
    // drop the snapshot when the WAL is empty).
    std::error_code ec;
    uintmax_t size = std::filesystem::file_size(wal, ec);
    if (!ec && size > 0) {
      std::filesystem::resize_file(wal, size - 1);
    } else {
      std::filesystem::remove(snapshot);
    }
  }
  DurableStoreOptions store_options;
  store_options.dir = s->dir;
  DurableRecommenderStore reopened(store_options);
  result->Check(reopened.Open().ok(), "store reopens after kill");
  result->Check(reopened.SerializeState() == before && reopened.applied_seq() == before_seq,
                "recovered store is byte-identical to the acknowledged pre-kill state");
}

}  // namespace

RunResult RunServeHot(const Options& options) {
  RunResult result;
  Setup s;
  double setup_s = MedianSetupSeconds(
      3, [&] { s.service.reset(); }, [&] { DoSetup(options, &s, &result); });
  // Warm-up, untimed: the first second of traffic after set-up runs slower
  // (first-touch page faults, the WAL's first appends).
  const int64_t warm = OpenLoop(&s, options.seed, kRatePerSecond, kWarmUpS, 0).sent;

  ServiceStatusSnapshot before = s.service->status();
  result.Check(before.pending_validation == 0, "no pending validations when the window opens");
  result.Check(before.serving > 0, "some groups serve a validated recommendation");
  const uint64_t seq_before = s.service->store().applied_seq();
  const bool rss_reset = ResetPeakRss();

  const double open_s = options.seconds * 0.75;
  LoopStats open = OpenLoop(&s, options.seed, kRatePerSecond, open_s, warm);
  const double sat_s = options.seconds - open_s;
  LoopStats sat = Saturate(&s, options.seed, kSaturationDepth, sat_s, warm + open.sent);

  SetPeakRss(rss_reset, &result);
  ServiceStatusSnapshot after = s.service->status();
  result.Check(after.cache_misses == before.cache_misses,
               "zero compile-cache misses inside the timed window");
  result.Check(after.pending_validation == 0, "no pending validations inside the timed window");
  result.Attempt(open.sent + sat.sent);
  result.Fail(open.refused + open.failed + sat.refused + sat.failed);

  // Latencies are whole-run percentiles of the open loop, from due time, so
  // a rare slow second counts as much as a steady one. Capacity is the
  // median over 0.5-second windows of the saturation phase's completions.
  const std::vector<double>& due_s = open.from_due_s;
  const double tail_q = TailQuantile(due_s.size());
  // Lag is judged at p99: the host's own scheduling hiccups (a few ms,
  // well under 1% of the time) are charged to latency, not to the loop.
  const double lag_tail = Percentile(open.lag_s, 0.99);
  const double p50 = Percentile(due_s, 0.5);
  const double p99 = Percentile(due_s, 0.99);
  const double capacity = MedianWindowRate(sat.done_ns, sat.start_ns,
                                           sat.start_ns + static_cast<int64_t>(sat_s * 1e9), 0.5);
  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", capacity, "1/s");
  result.Set("service.serve_p50_ms", p50 * 1e3, "ms");
  result.Set("service.serve_p99_ms", p99 * 1e3, "ms");
  char line[256];
  std::snprintf(line, sizeof(line),
                "  open loop %.0f req/s for %.2f s: %lld sent, %lld refused, %lld failed; "
                "serve_p50_ms %.4f serve_p99_ms %.4f (%s the %.0f-ms limit); p%g %.4f ms "
                "(n=%zu, from due time)",
                kRatePerSecond, open_s, (long long)open.sent, (long long)open.refused,
                (long long)open.failed, p50 * 1e3, p99 * 1e3,
                p99 <= kLatencyLimitS ? "within" : "OVER", kLatencyLimitS * 1e3, tail_q * 100,
                Percentile(due_s, tail_q) * 1e3, due_s.size());
  result.Note(line);
  std::snprintf(line, sizeof(line),
                "  generator lag p99 %.4f ms, max %.4f ms%s; saturation (%d in flight): %.1f req/s",
                lag_tail * 1e3, Percentile(open.lag_s, 1.0) * 1e3,
                lag_tail > kLagBoundS ? "  ** GENERATOR LAGGED: open-loop figures suspect **"
                                      : "",
                kSaturationDepth, capacity);
  result.Note(line);

  if (options.trace) {
    const double steered_frac =
        open.completed > 0 ? static_cast<double>(open.steered) / open.completed : 0.0;
    const uint64_t seq_window = s.service->store().applied_seq() - seq_before;
    const int64_t snaps_window = after.snapshots_taken - before.snapshots_taken;
    result.Set("loadgen.lag_ms_p99", Percentile(open.lag_s, 0.99) * 1e3, "ms");
    result.Set("service.queue_high_water", static_cast<double>(after.queue_high_water), "count");
    const int64_t ladder_first = warm + open.sent + sat.sent;
    result.Set("service.max_rps", MaxRate(&s, options.seed, 1.0, ladder_first, &result), "1/s");
    result.Set("recommender.steered_frac", steered_frac, "frac");
    result.Set("store.wal_appends", static_cast<double>(seq_window), "count");
    result.Set("store.snapshots", static_cast<double>(snaps_window), "count");

    const int64_t requests = std::min<int64_t>(open.sent, 20000);
    Tracer off(false, kServiceWorkers);
    ReplayOut untraced = Replay(&s, options.seed, requests, &off);
    CompileCacheStats cache_before = s.service->pipeline().compile_cache_stats();
    Tracer tracer(true, kServiceWorkers);
    ReplayOut traced = Replay(&s, options.seed, requests, &tracer);
    CompileCacheStats cache = s.service->pipeline().compile_cache_stats();

    std::vector<double> exec_s = tracer.Durations("exec.execute");
    std::vector<double> append_s = tracer.Durations("store.append");
    double exec_sum = 0.0;
    for (double v : exec_s) exec_sum += v;
    const int64_t lookups = (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses);
    result.Set("optimizer.compiles", static_cast<double>(cache.misses - cache_before.misses),
               "count");
    result.Set("compile_cache.hit_rate",
               lookups > 0 ? static_cast<double>(cache.hits - cache_before.hits) / lookups : 0.0,
               "frac");
    result.Set("compile_cache.evictions", static_cast<double>(cache.evictions), "count");
    result.Set("compile_cache.bytes", static_cast<double>(cache.bytes), "B");
    result.Set("compile_cache.shard_contention",
               static_cast<double>(cache.shard_contention - cache_before.shard_contention),
               "count");
    result.Set("compile_cache.probe_us_p50",
               Percentile(tracer.Durations("compile_cache.probe"), 0.5) * 1e6, "us");
    result.Set("exec.executions", static_cast<double>(exec_s.size()), "count");
    result.Set("exec.execute_us_p50", Percentile(exec_s, 0.5) * 1e6, "us");
    result.Set("exec.busy_frac", exec_sum / (traced.wall_s * kServiceWorkers), "frac");
    result.Set("recommender.recommend_us_p50",
               Percentile(tracer.Durations("recommender.recommend"), 0.5) * 1e6, "us");
    result.Set("store.append_us_p50", Percentile(append_s, 0.5) * 1e6, "us");
    result.Set("store.append_us_p99", Percentile(append_s, 0.99) * 1e6, "us");
    std::vector<double> snapshot_s;
    for (int k = 0; k < 5; ++k) {
      Tracer::Scope root(&tracer, 0, "request", 0);
      Tracer::Scope span(&tracer, 0, "store.snapshot", 0);
      Clock::time_point start = Clock::now();
      result.Check(s.service->store().Snapshot().ok(), "store snapshot");
      snapshot_s.push_back(SecondsSince(start));
    }
    result.Set("store.snapshot_ms_p50", Median(snapshot_s) * 1e3, "ms");
    result.Set("service.overhead_us_p50",
               (Percentile(open.from_send_s, 0.5) - Percentile(traced.layer_sum_s, 0.5)) * 1e6,
               "us");
    ReportTraceSummary(tracer, traced.wall_s, untraced.wall_s, &result);
    std::string path = options.out_dir + "/trace-serve-hot-" + std::to_string(options.seed) +
                       ".jsonl";
    result.Check(tracer.WriteJsonLines(path), "trace written to " + path);
  }

  CheckRecovery(options, &s, &result);
  return result;
}

}  // namespace qbench
