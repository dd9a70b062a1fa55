// `discover`: the nightly pass. One workload-B day (day 3, 126 jobs for the
// default seed) through ShardOrchestrator::Run with 4 workers and M = 20
// candidates, cold, into a fresh directory; passes repeat while the window
// lasts.
//
// The seed varies the pass's lease schedule: which shard dispatches
// straggle, which are speculatively re-dispatched, and the order in which
// shards commit. The day's jobs and the analysis (candidate sampling and
// A/B noise, PipelineOptions::seed = 1) are the same for every seed, so
// figures from different seeds measure the same work, and the merged store
// must be the same bytes for every seed.
//
// Traced run: AnalyzeJobs on the same jobs and workers (the orchestration
// overhead and the sharded-vs-unsharded bit-identity check), then a replay
// of every job through the public calls the pipeline makes, untraced and
// traced (the tracing overhead).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "common.h"
#include "common/hash.h"
#include "common/status.h"
#include "core/config_search.h"
#include "core/pipeline.h"
#include "core/recommender.h"
#include "core/rule_diff.h"
#include "core/span.h"
#include "discovery/orchestrator.h"
#include "exec/reference_executor.h"
#include "exec/simulator.h"
#include "optimizer/compile_cache.h"
#include "optimizer/optimizer.h"
#include "workload/generator.h"

namespace qbench {
namespace {

using namespace qsteer;

constexpr int kWorkers = 4;
/// Candidates per job (M). Lower than the `qsteer analyze` default of 200
/// so that a ~2-s pass repeats many times in one run; candidate compiles
/// are still ~3/4 of the pass.
constexpr int kCandidates = 20;

WorkloadSpec DaySpec() { return WorkloadSpec::WorkloadB(kWorkloadScale); }

DiscoveryOptions PassOptions(const std::string& dir, uint64_t seed) {
  DiscoveryOptions options;
  options.dir = dir;
  options.num_workers = kWorkers;
  // The lease schedule only; the analysis keeps the library's seed. A
  // sampling seed per run would change the pass's work by up to ~15%
  // between seeds (qbench/README.md).
  options.seed = seed;
  options.pipeline.max_candidate_configs = kCandidates;
  return options;
}

/// Output columns to compare: the whole output, unless the plan has a Top
/// whose non-key columns are tie-dependent (as in tests/correctness_test).
std::vector<ColumnId> RestrictionFor(const Job& job) {
  std::vector<ColumnId> restrict_to;
  VisitPlan(job.root, [&](const PlanNode& node) {
    if (node.op.kind == OpKind::kTop) restrict_to = node.op.sort_keys;
  });
  return restrict_to;
}

/// Every learned recommendation, compiled for each job of its group, must
/// produce the job's logical result (ReferenceExecutor fingerprints). This
/// is independent of the optimizer's own bookkeeping.
void CheckLearnedPlans(const Workload& workload, const std::vector<Job>& jobs,
                       const std::string& merged_store, RunResult* result) {
  SteeringRecommender learned;
  result->Check(learned.Deserialize(merged_store).ok(), "merged store deserializes");
  std::map<std::string, RuleConfig> config_by_signature;
  for (const SteeringRecommender::ValidationRequest& pending : learned.PendingValidations()) {
    config_by_signature[pending.signature.ToHexString()] = pending.config;
  }
  for (const SteeringRecommender::SnapshotEntry& entry : learned.SnapshotRecommendations()) {
    if (!entry.recommendation.is_default) {
      config_by_signature[entry.signature.ToHexString()] = entry.recommendation.config;
    }
  }
  result->Check(!config_by_signature.empty(), "the pass learned at least one recommendation");

  Optimizer optimizer(&workload.catalog());
  ReferenceExecutor executor(&workload.catalog());
  int checked = 0;
  for (const Job& job : jobs) {
    Result<CompiledPlan> default_plan = optimizer.Compile(job, RuleConfig::Default());
    if (!default_plan.ok()) continue;
    auto it = config_by_signature.find(default_plan.value().signature.ToHexString());
    if (it == config_by_signature.end()) continue;
    Result<CompiledPlan> steered = optimizer.Compile(job, it->second);
    std::vector<ColumnId> restriction = RestrictionFor(job);
    std::string expected = executor.Execute(job, job.root).Fingerprint(restriction);
    ++checked;
    result->Check(steered.ok() && executor.Execute(job, steered.value().root)
                                          .Fingerprint(restriction) == expected,
                  "learned plan for job " + job.name + " returns the logical result");
  }
  char line[96];
  std::snprintf(line, sizeof(line), "  reference-executor checks: %d learned (job, plan) pairs",
                checked);
  result->Note(line);
}

// ---------------------------------------------------------------------------
// Replay: each job through the public calls SteeringPipeline::AnalyzeJob
// makes, with the pipeline's own options, cache, nonces and retry paths, and
// spans around each call. Jobs are spread over kWorkers threads and each
// job runs serially on its thread, as in the orchestrator and AnalyzeJobs
// (nested pool work runs inline). The learned store must equal the
// pipeline's byte for byte, which keeps the replay from drifting away from
// the program it stands for.

struct ReplayStats {
  std::atomic<int64_t> compiles{0};
  std::atomic<int64_t> compile_failures{0};
  std::atomic<int64_t> distinct_plans{0};
  std::atomic<int64_t> memo_exprs{0};
  std::atomic<int64_t> memo_groups{0};
  std::atomic<int64_t> span_iterations{0};
  std::atomic<int64_t> span_size{0};
  std::atomic<int64_t> generated{0};
  std::atomic<int64_t> pruned{0};
  std::atomic<int64_t> executions{0};
};

JobAnalysis ReplayJob(const Job& job, uint64_t trace, int thread, const Optimizer& optimizer,
                      const SteeringPipeline& pipeline, Tracer* tracer, ReplayStats* stats) {
  const PipelineOptions& options = pipeline.options();
  CompileCache* cache = pipeline.compile_cache();
  Tracer::Scope root(tracer, thread, "job", trace);
  JobAnalysis analysis;
  analysis.job = job;
  const uint64_t fingerprint = JobFingerprint(job);
  CompileSession session;
  std::vector<std::string> signatures_seen;

  // CompileViaCache: lookup, then Optimizer::Compile under the pipeline's
  // timeout with transient failures retried (CompileWithRetry), then insert.
  CompileControl control;
  control.timeout_s = options.compile_timeout_s;
  auto compile = [&](const RuleConfig& config,
                     const CompileCache::Key& key) -> Result<CompiledPlan> {
    {
      Tracer::Scope probe(tracer, thread, "compile_cache.lookup", trace);
      if (std::optional<Result<CompiledPlan>> hit = cache->Lookup(key)) return std::move(*hit);
    }
    Result<CompiledPlan> plan = [&] {
      Tracer::Scope span(tracer, thread, "optimizer.compile", trace);
      Result<CompiledPlan> attempt = optimizer.Compile(job, config, control, &session);
      for (int n = 1; !attempt.ok() && IsTransient(attempt.status().code()) &&
                      n < options.retry.max_attempts;
           ++n) {
        attempt = optimizer.Compile(job, config, control, &session);
      }
      return attempt;
    }();
    stats->compiles.fetch_add(1, std::memory_order_relaxed);
    if (!plan.ok()) {
      if (plan.status().code() == StatusCode::kCompilationFailed) {
        stats->compile_failures.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      stats->memo_exprs.fetch_add(plan.value().memo_exprs, std::memory_order_relaxed);
      stats->memo_groups.fetch_add(plan.value().memo_groups, std::memory_order_relaxed);
      std::string sig = plan.value().signature.ToHexString();
      if (std::find(signatures_seen.begin(), signatures_seen.end(), sig) ==
          signatures_seen.end()) {
        signatures_seen.push_back(sig);
        stats->distinct_plans.fetch_add(1, std::memory_order_relaxed);
      }
    }
    {
      Tracer::Scope insert(tracer, thread, "compile_cache.insert", trace);
      cache->Insert(key, plan);
    }
    return plan;
  };

  Result<CompiledPlan> default_plan =
      compile(RuleConfig::Default(), CompileCache::Key{fingerprint, RuleConfig::Default().bits()});
  if (!default_plan.ok()) return analysis;
  analysis.default_plan = std::move(default_plan.value());

  {
    CachingCompiler span_compiler(&optimizer, cache, &session, fingerprint);
    Tracer::Scope span(tracer, thread, "core.span", trace);
    analysis.span = ComputeJobSpan(optimizer, job, SpanOptions{}, &span_compiler);
  }
  stats->span_iterations.fetch_add(analysis.span.iterations, std::memory_order_relaxed);
  stats->span_size.fetch_add(analysis.span.span.Count(), std::memory_order_relaxed);

  ConfigSearchOptions search = options.search;
  search.max_configs = options.max_candidate_configs;
  search.seed = options.seed ^ job.TemplateHash();
  CandidateGenerationStats gen;
  std::vector<RuleConfig> candidates;
  {
    Tracer::Scope span(tracer, thread, "core.config_search", trace);
    candidates = GenerateCandidateConfigs(analysis.span.span, search, &gen);
  }
  stats->generated.fetch_add(gen.generated, std::memory_order_relaxed);
  stats->pruned.fetch_add(gen.span_duplicates_pruned, std::memory_order_relaxed);

  std::vector<uint64_t> seen_plans = {PlanHash(analysis.default_plan.root, false)};
  for (const RuleConfig& config : candidates) {
    Result<CompiledPlan> plan =
        compile(config, CompileCache::Key{fingerprint, ProjectConfig(config, analysis.span.span)});
    if (!plan.ok()) continue;
    uint64_t hash = PlanHash(plan.value().root, false);
    if (std::find(seen_plans.begin(), seen_plans.end(), hash) != seen_plans.end()) continue;
    seen_plans.push_back(hash);
    ConfigOutcome outcome;
    outcome.config = config;
    outcome.plan = std::move(plan.value());
    outcome.diff_vs_default =
        ComputeRuleDiff(analysis.default_plan.signature, outcome.plan.signature);
    analysis.executed.push_back(std::move(outcome));
  }
  std::sort(analysis.executed.begin(), analysis.executed.end(),
            [](const ConfigOutcome& a, const ConfigOutcome& b) {
              return a.plan.est_cost < b.plan.est_cost;
            });
  const size_t to_execute = static_cast<size_t>(options.configs_to_execute);
  if (analysis.executed.size() > to_execute) analysis.executed.resize(to_execute);

  // A/B runs with the pipeline's nonces: the seed for the default plan,
  // hash(seed, config) for each alternative.
  {
    Tracer::Scope span(tracer, thread, "exec.execute", trace);
    analysis.default_metrics =
        pipeline.ExecuteWithRetry(job, analysis.default_plan.root, options.seed);
  }
  for (ConfigOutcome& outcome : analysis.executed) {
    Tracer::Scope span(tracer, thread, "exec.execute", trace);
    outcome.metrics = pipeline.ExecuteWithRetry(job, outcome.plan.root,
                                                HashCombine(options.seed, outcome.config.Hash()));
    outcome.executed = !outcome.metrics.failed;
  }
  stats->executions.fetch_add(1 + static_cast<int64_t>(analysis.executed.size()),
                              std::memory_order_relaxed);
  return analysis;
}

struct ReplayRun {
  double wall_s = 0.0;
  CompileCacheStats cache;
  int64_t learned = 0;
  std::string store;  // the learned recommender's bytes
};

/// One replay on a fresh pipeline (cold 64-MiB cache) built with the
/// options of an orchestrator pass.
ReplayRun Replay(const Workload& workload, const std::vector<Job>& jobs,
                 const PipelineOptions& pipeline_options, Tracer* tracer, ReplayStats* stats) {
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);
  std::vector<JobAnalysis> analyses(jobs.size());
  std::atomic<size_t> next{0};
  Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1)) {
        analyses[i] = ReplayJob(jobs[i], i, t, optimizer, pipeline, tracer, stats);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Learning is the merge step: serial, in job order.
  SteeringRecommender recommender;
  ReplayRun run;
  for (size_t i = 0; i < analyses.size(); ++i) {
    Tracer::Scope root(tracer, 0, "merge", jobs.size() + i);
    Tracer::Scope span(tracer, 0, "core.recommender_learn", jobs.size() + i);
    if (recommender.LearnFromAnalysis(analyses[i])) ++run.learned;
  }
  run.wall_s = SecondsSince(start);
  run.cache = pipeline.compile_cache_stats();
  run.store = recommender.Serialize();
  return run;
}

void TracedRun(const Options& options, const Workload& workload, const std::vector<Job>& jobs,
               const std::string& merged_store, double pass_wall_s, int shards,
               RunResult* result) {
  // Orchestration overhead and sharded-vs-unsharded bit-identity.
  PipelineOptions pipeline_options = PassOptions("", options.seed).pipeline;
  pipeline_options.num_threads = kWorkers;
  Optimizer optimizer(&workload.catalog());
  ExecutionSimulator simulator(&workload.catalog());
  SteeringPipeline pipeline(&optimizer, &simulator, pipeline_options);
  Clock::time_point start = Clock::now();
  std::vector<JobAnalysis> analyses = pipeline.AnalyzeJobs(jobs);
  double analyze_s = SecondsSince(start);
  SteeringRecommender unsharded;
  for (const JobAnalysis& analysis : analyses) {
    std::optional<SteeringRecommender::CandidateObservation> candidate =
        SteeringRecommender::ExtractCandidate(analysis, RecommenderOptions{});
    if (candidate.has_value()) unsharded.LearnCandidate(*candidate);
  }
  const std::string reference = unsharded.Serialize();
  result->Check(reference == merged_store,
                "sharded merge is byte-identical to AnalyzeJobs on the same jobs");
  ThreadPoolStats pool = pipeline.pool_stats();
  result->Set("discovery.overhead_frac", (pass_wall_s - analyze_s) / pass_wall_s, "frac");
  result->Set("discovery.shards", shards, "count");
  result->Set("pool.utilization", pool.Utilization(), "frac");
  result->Set("pool.tasks", static_cast<double>(pool.tasks_run), "count");

  // The replay, untraced and then traced; each must learn what the
  // pipeline learned.
  pipeline_options.num_threads = 0;
  Tracer off(false, kWorkers);
  ReplayStats untraced_stats;
  ReplayRun untraced = Replay(workload, jobs, pipeline_options, &off, &untraced_stats);
  Tracer tracer(true, kWorkers);
  ReplayStats stats;
  ReplayRun traced = Replay(workload, jobs, pipeline_options, &tracer, &stats);
  result->Check(untraced.store == reference && traced.store == reference,
                "the replay learns the same store as AnalyzeJobs");

  const double n_jobs = static_cast<double>(jobs.size());
  const double compiles = static_cast<double>(stats.compiles.load());
  const double worker_s = traced.wall_s * kWorkers;
  std::vector<double> compile_s = tracer.Durations("optimizer.compile");
  std::vector<double> exec_s = tracer.Durations("exec.execute");
  double compile_sum = 0.0, exec_sum = 0.0;
  for (double s : compile_s) compile_sum += s;
  for (double s : exec_s) exec_sum += s;
  int64_t ok_compiles = stats.compiles.load() - stats.compile_failures.load();
  result->Set("optimizer.compiles", compiles, "count");
  result->Set("optimizer.compile_ms_p50", Percentile(compile_s, 0.5) * 1e3, "ms");
  result->Set("optimizer.compile_ms_p99", Percentile(compile_s, 0.99) * 1e3, "ms");
  result->Set("optimizer.busy_frac", compile_sum / worker_s, "frac");
  result->Set("optimizer.failed_frac", compiles > 0 ? stats.compile_failures.load() / compiles : 0,
              "frac");
  result->Set("optimizer.distinct_plan_frac",
              compiles > 0 ? stats.distinct_plans.load() / compiles : 0, "frac");
  result->Set("optimizer.memo_exprs_mean",
              ok_compiles > 0 ? static_cast<double>(stats.memo_exprs.load()) / ok_compiles : 0,
              "count");
  result->Set("optimizer.memo_groups_mean",
              ok_compiles > 0 ? static_cast<double>(stats.memo_groups.load()) / ok_compiles : 0,
              "count");
  result->Set("span.ms_per_job", Mean(tracer.Durations("core.span")) * 1e3, "ms");
  result->Set("span.iterations_mean", stats.span_iterations.load() / n_jobs, "count");
  result->Set("span.size_mean", stats.span_size.load() / n_jobs, "count");
  result->Set("config_search.us_per_job", Mean(tracer.Durations("core.config_search")) * 1e6,
              "us");
  const double draws = static_cast<double>(stats.generated.load() + stats.pruned.load());
  result->Set("config_search.pruned_frac", draws > 0 ? stats.pruned.load() / draws : 0, "frac");
  result->Set("compile_cache.hit_rate", traced.cache.HitRate(), "frac");
  result->Set("compile_cache.evictions", static_cast<double>(traced.cache.evictions), "count");
  result->Set("compile_cache.bytes", static_cast<double>(traced.cache.bytes), "B");
  result->Set("compile_cache.shard_contention", static_cast<double>(traced.cache.shard_contention),
              "count");
  result->Set("compile_cache.probe_us_p50",
              Percentile(tracer.Durations("compile_cache.lookup"), 0.5) * 1e6, "us");
  result->Set("exec.executions", static_cast<double>(stats.executions.load()), "count");
  result->Set("exec.execute_us_p50", Percentile(exec_s, 0.5) * 1e6, "us");
  result->Set("exec.busy_frac", exec_sum / worker_s, "frac");
  result->Set("recommender.learned", static_cast<double>(traced.learned), "count");

  char line[192];
  std::snprintf(line, sizeof(line),
                "  AnalyzeJobs %.3f s vs ShardOrchestrator::Run %.3f s on %zu jobs, %d workers",
                analyze_s, pass_wall_s, jobs.size(), kWorkers);
  result->Note(line);
  ReportTraceSummary(tracer, traced.wall_s, untraced.wall_s, result);
  std::string path = options.out_dir + "/trace-discover-" + std::to_string(options.seed) +
                     ".jsonl";
  result->Check(tracer.WriteJsonLines(path), "trace written to " + path);
}

}  // namespace

RunResult RunDiscover(const Options& options) {
  RunResult result;
  std::unique_ptr<Workload> workload;
  std::vector<Job> jobs;
  double setup_s = 0.0;
  {
    // Generating the day is single-threaded: time it on every CPU in turn
    // (eight set-ups on each of the reference host's 4 vCPUs), moving
    // between CPUs outside the timed call.
    CpuRotation rotation;
    setup_s = MedianSetupSeconds(
        32,
        [&] {
          workload.reset();
          rotation.Next();
        },
        [&] {
          WorkloadSpec spec = DaySpec();
          workload = std::make_unique<Workload>(spec);
          jobs = workload->JobsForDay(kDay);
        });
  }

  // Cold passes until the window is spent; a pass is started only when
  // the last one would still fit, and at least one always runs. A traced
  // run reports no end-to-end figure, so one pass is enough there.
  std::vector<double> pass_s;
  std::vector<std::string> digests;
  std::string merged_store;
  int shards = 0;
  const bool rss_reset = ResetPeakRss();
  Clock::time_point window = Clock::now();
  while (pass_s.empty() ||
         (!options.trace && SecondsSince(window) + pass_s.back() <= options.seconds)) {
    std::string dir = FreshDir(options, "discover-pass-" + std::to_string(pass_s.size()));
    result.Check(std::filesystem::is_empty(dir), "pass starts in an empty directory");
    ShardOrchestrator orchestrator(workload.get(), kDay, PassOptions(dir, options.seed));
    Clock::time_point start = Clock::now();
    Result<DiscoveryResult> run = orchestrator.Run();
    pass_s.push_back(SecondsSince(start));
    result.Attempt(static_cast<int64_t>(jobs.size()));
    if (!run.ok() || !run.value().completed) {
      result.Fail(static_cast<int64_t>(jobs.size()));
      result.Check(false, "discovery pass completes: " +
                              (run.ok() ? run.value().crash_window : run.status().ToString()));
      break;
    }
    const DiscoveryCounters& counters = run.value().counters;
    result.Fail(counters.jobs_total - counters.jobs_analyzed);
    result.Check(counters.cache_warm_loaded == 0 && counters.shards_reused == 0,
                 "pass is a cold start (no warm cache entries, no reused shards)");
    result.Check(counters.jobs_analyzed == static_cast<int64_t>(jobs.size()),
                 "pass analyzed every job of the day");
    merged_store = run.value().merged_store;
    shards = counters.shards_total;
    if (options.inject == "corrupt-digest" && !merged_store.empty()) merged_store[0] ^= 1;
    digests.push_back(Digest(merged_store));
  }

  SetPeakRss(rss_reset, &result);

  // Output checks.
  for (const std::string& digest : digests) {
    result.Check(digest == digests.front(), "every pass merges to the same bytes");
  }
  result.Check(std::filesystem::exists(options.digests_file),
               "digests file " + options.digests_file + " exists");
  std::string recorded = RecordedDigest(options.digests_file, "discover");
  result.Check(!recorded.empty() && digests.front() == recorded,
               "merged store digest " + digests.front() + " matches recorded " + recorded);
  result.Note("  merged store digest " + digests.front() + " (recorded " + recorded + ")");
  CheckLearnedPlans(*workload, jobs, merged_store, &result);

  const double pass_median = Median(pass_s);
  result.Set("setup_s", setup_s, "s");
  result.Set("ops_per_s", static_cast<double>(jobs.size()) / pass_median, "1/s");
  std::string line = "  " + std::to_string(pass_s.size()) + " cold pass(es) of " +
                     std::to_string(jobs.size()) + " jobs; jobs_per_s " +
                     std::to_string(jobs.size() / pass_median) + "; pass wall p50 " +
                     std::to_string(pass_median) + " s; every pass (s):";
  for (double s : pass_s) line += " " + std::to_string(s);
  result.Note(line);

  if (options.trace) {
    TracedRun(options, *workload, jobs, merged_store, pass_median, shards, &result);
  }
  return result;
}

}  // namespace qbench
