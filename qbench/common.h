// Shared plumbing for the qbench workloads: command-line options, clocks,
// latency summaries, the span tracer, result/metric collection and the
// process facts every result records.
//
// Everything here lives outside the qsteer library on purpose: the
// benchmark times calls into each layer's public functions from the
// outside, so no code under src/ knows it is being measured.
#ifndef QBENCH_COMMON_H_
#define QBENCH_COMMON_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qbench {

/// Workload day and scale shared by every workload: workload B at the
/// benches' default scale (0.005), day 3 — 126 jobs for the default seed.
constexpr double kWorkloadScale = 0.005;
constexpr int kDay = 3;
/// `--seed 1` reproduces the benches' default workload-B inputs.
constexpr uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Fault injected into the output checks (self-test only): "" (none),
  /// "corrupt-digest" or "drop-mutation".
  std::string inject;
  /// Directory for run scratch state and trace files (inside the checkout).
  std::string out_dir = ".bench_out";
  /// Recorded output digests (see digests.json).
  std::string digests_file = "qbench/digests.json";
};

// ---------------------------------------------------------------------------
// Time.

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Latency summaries.

/// Nearest-rank percentile of `values` (copied and sorted); 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// A timed sample: when it happened (steady-clock ns) and its value.
struct Sample {
  int64_t t_ns;
  double value;
};

/// Throughput of the events at `times_ns`: the median over the complete
/// `window_s` windows of [start_ns, end_ns) of events per second (the
/// overall rate when no window is complete). A host stall then moves one
/// window's figure, not the run's.
double MedianWindowRate(const std::vector<int64_t>& times_ns, int64_t start_ns, int64_t end_ns,
                        double window_s);

/// The values of `samples`, in order.
std::vector<double> Values(const std::vector<Sample>& samples);

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it (0.5 when even p50 has fewer), per the benchmark's reporting
/// rule for tails.
double TailQuantile(size_t samples);

// ---------------------------------------------------------------------------
// Tracing: spans recorded in memory at each layer boundary and written out
// when the run ends. Spans of one job or request share a trace id; a span's
// parent is the span open on the same thread when it began.

class Tracer {
 public:
  struct Span {
    const char* name;  // "<layer>.<call>", or "<root>" for a job/request
    uint64_t trace;
    int32_t parent;  // index into the same thread's buffer, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  /// A disabled tracer records nothing; Scope objects then cost a clock
  /// read and a branch, which is how the untraced twin of a traced replay
  /// runs. A null tracer behaves the same.
  Tracer(bool enabled, int threads);

  class Scope {
   public:
    Scope(Tracer* tracer, int thread, const char* name, uint64_t trace);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Duration so far (the span's length once it has ended), seconds.
    double seconds() const { return static_cast<double>(NowNs() - start_ns_) * 1e-9; }

   private:
    Tracer* tracer_;
    int thread_;
    int32_t index_ = -1;
    int64_t start_ns_;
  };

  /// Per-layer self time (seconds): span duration minus its children's.
  /// Root spans are reported under "root".
  std::map<std::string, double> SelfSecondsByLayer() const;
  /// Durations (seconds) of every span named `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Sum of root-span durations, seconds.
  double RootSeconds() const;
  size_t num_spans() const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<int32_t> open;
  };
  bool enabled_;
  std::vector<Buffer> buffers_;
};

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed (failed or
/// refused operations and failed output checks alike), metrics by name, and
/// human-readable report lines printed before the final JSON line.
class RunResult {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  /// An output check: counts one attempt, and a failure (with `what`
  /// printed to stderr) when `ok` is false.
  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return checks_failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t checks_failed_ = 0;
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> notes_;
};

// ---------------------------------------------------------------------------
// Process facts.

/// Peak resident set size of this process, MB (VmHWM).
double PeakRssMb();
/// Returns freed heap to the OS and restarts the peak-RSS count from the
/// current RSS, so peak_rss_mb covers the measured window and not set-up.
/// False when the kernel refuses the reset.
bool ResetPeakRss();
/// Sets peak_rss_mb, noting when the window's peak could not be separated
/// from set-up's (`reset` is what ResetPeakRss returned).
void SetPeakRss(bool reset, RunResult* result);
int HostCores();
/// "Release", "RelWithDebInfo", "Debug" or "sanitizer:<kind>", from the
/// compile-time flags this binary was built with.
std::string BuildType();
std::string CompilerVersion();
/// Empty when the build is fit to measure; otherwise why it is not.
std::string UnfitBuildReason();

/// Hex digest of `bytes` (FNV-1a 64 and length), stable across hosts.
std::string Digest(const std::string& bytes);

/// Recorded digest named `key` in the digests file, or "".
std::string RecordedDigest(const std::string& file, const std::string& key);

/// This process's scratch directory, `<out_dir>/run-<pid>`; removed when
/// the run ends.
std::string RunDir(const Options& options);
/// Fresh, empty directory `<RunDir>/<name>`; returns its path.
std::string FreshDir(const Options& options, const std::string& name);

/// Moves the calling thread round robin over the CPUs it may run on, and
/// restores its CPU mask when destroyed. On the reference VM the vCPUs run
/// at different speeds at any one time: the `discover` set-up, repeated
/// in one process, took 1.1-1.2 ms in some processes and 1.6-2.0 ms in
/// others, and pinned runs showed the same split between vCPUs. A short
/// single-threaded figure timed where the process happened to start
/// depends on that placement. Rotating takes the median over the vCPUs,
/// and each timed call starts with the cold caches of a freshly entered
/// CPU, as a one-off set-up does. Threads started while pinned inherit
/// the pin, so only single-threaded work may run between Next() and the
/// destructor.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pins the thread to the next CPU of its original mask (a no-op when
  /// the mask could not be read).
  void Next();

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Median of `k` timed calls of `setup` (seconds), each after an untimed
/// call of `teardown` that releases the previous call's state. The last
/// call's state is what the caller keeps.
template <typename Teardown, typename Setup>
double MedianSetupSeconds(int k, Teardown&& teardown, Setup&& setup) {
  std::vector<double> times;
  for (int i = 0; i < k; ++i) {
    teardown();
    Clock::time_point start = Clock::now();
    setup();
    times.push_back(SecondsSince(start));
  }
  return Median(times);
}

/// Adds the per-layer trace summary shared by every workload: layer self
/// times, coverage of the traced wall time, and the tracing overhead (the
/// traced replay's wall time against its untraced twin's).
void ReportTraceSummary(const Tracer& tracer, double traced_wall_s, double untraced_wall_s,
                        RunResult* result);

// Workload entry points (discover.cc, serve.cc, fleet.cc).
RunResult RunDiscover(const Options& options);
RunResult RunServeHot(const Options& options);
RunResult RunFleetMixed(const Options& options);

}  // namespace qbench

#endif  // QBENCH_COMMON_H_
