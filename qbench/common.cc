#include "common.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace qbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double MedianWindowRate(const std::vector<int64_t>& times_ns, int64_t start_ns, int64_t end_ns,
                        double window_s) {
  const int64_t width = static_cast<int64_t>(window_s * 1e9);
  const int64_t windows = (end_ns - start_ns) / width;
  if (windows < 1) {
    return static_cast<double>(times_ns.size()) / (static_cast<double>(end_ns - start_ns) * 1e-9);
  }
  std::vector<double> counts(static_cast<size_t>(windows), 0.0);
  for (int64_t t : times_ns) {
    const int64_t w = (t - start_ns) / width;
    if (t >= start_ns && w < windows) counts[static_cast<size_t>(w)] += 1.0;
  }
  return Median(counts) / window_s;
}

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& sample : samples) out.push_back(sample.value);
  return out;
}

double TailQuantile(size_t samples) {
  double best = 0.5;
  for (double q : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

// ---------------------------------------------------------------------------

Tracer::Tracer(bool enabled, int threads)
    : enabled_(enabled), buffers_(static_cast<size_t>(std::max(threads, 1))) {
  if (enabled_) {
    for (Buffer& buffer : buffers_) buffer.spans.reserve(1 << 16);
  }
}

Tracer::Scope::Scope(Tracer* tracer, int thread, const char* name, uint64_t trace)
    : tracer_(tracer), thread_(thread), start_ns_(NowNs()) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  Buffer& buffer = tracer_->buffers_[static_cast<size_t>(thread_)];
  int32_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  index_ = static_cast<int32_t>(buffer.spans.size());
  buffer.spans.push_back(Span{name, trace, parent, start_ns_, 0});
  buffer.open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Buffer& buffer = tracer_->buffers_[static_cast<size_t>(thread_)];
  buffer.spans[static_cast<size_t>(index_)].end_ns = NowNs();
  buffer.open.pop_back();
}

namespace {

std::string LayerOf(const Tracer::Span& span) {
  if (span.parent < 0) return "root";
  std::string name = span.name;
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

std::map<std::string, double> Tracer::SelfSecondsByLayer() const {
  std::map<std::string, double> self;
  for (const Buffer& buffer : buffers_) {
    std::vector<int64_t> child_ns(buffer.spans.size(), 0);
    for (const Span& span : buffer.spans) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    for (size_t i = 0; i < buffer.spans.size(); ++i) {
      const Span& span = buffer.spans[i];
      self[LayerOf(span)] +=
          static_cast<double>(span.end_ns - span.start_ns - child_ns[i]) * 1e-9;
    }
  }
  return self;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Buffer& buffer : buffers_) {
    for (const Span& span : buffer.spans) {
      if (name == span.name) out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
    }
  }
  return out;
}

double Tracer::RootSeconds() const {
  double total = 0.0;
  for (const Buffer& buffer : buffers_) {
    for (const Span& span : buffer.spans) {
      if (span.parent < 0) total += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return total;
}

size_t Tracer::num_spans() const {
  size_t n = 0;
  for (const Buffer& buffer : buffers_) n += buffer.spans.size();
  return n;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t t = 0; t < buffers_.size(); ++t) {
    const std::vector<Span>& spans = buffers_[t].spans;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%zu,\"id\":%zu,\"parent\":%d,\"trace\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   t, i, s.parent, static_cast<unsigned long long>(s.trace), s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------

void RunResult::Check(bool ok, const std::string& what) {
  Attempt();
  if (ok) return;
  Fail();
  ++checks_failed_;
  std::fprintf(stderr, "qbench: output check FAILED: %s\n", what.c_str());
  notes_.push_back("CHECK FAILED: " + what);
}

void RunResult::Set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

// ---------------------------------------------------------------------------

CpuRotation::CpuRotation() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(saved_), &saved_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// ---------------------------------------------------------------------------

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool ResetPeakRss() {
  // Hand set-up's freed heap back first, so the window starts from the
  // memory the program still holds rather than from allocator leftovers.
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

void SetPeakRss(bool reset, RunResult* result) {
  result->Set("process.peak_rss_mb", PeakRssMb(), "MB");
  if (!reset) result->Note("  peak_rss_mb includes set-up (peak RSS could not be reset)");
}

int HostCores() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string BuildType() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer";
#endif
#endif
#ifndef NDEBUG
  return "Debug";
#elif defined(__OPTIMIZE__)
  return "Release";
#else
  return "NDEBUG-unoptimized";
#endif
}

std::string CompilerVersion() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string UnfitBuildReason() {
  std::string type = BuildType();
  if (type != "Release") return "benchmark binary is a " + type + " build";
  return "";
}

std::string Digest(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%016llx-%zu", static_cast<unsigned long long>(h),
                bytes.size());
  return buf;
}

std::string RecordedDigest(const std::string& file, const std::string& key) {
  // digests.json holds "<key>": "<digest>" pairs.
  std::ifstream in(file);
  std::stringstream content;
  content << in.rdbuf();
  std::string text = content.str();
  std::string quoted = "\"" + key + "\"";
  size_t at = text.find(quoted);
  if (at == std::string::npos) return "";
  size_t open = text.find('"', text.find(':', at + quoted.size()) + 1);
  size_t close = text.find('"', open + 1);
  if (open == std::string::npos || close == std::string::npos) return "";
  return text.substr(open + 1, close - open - 1);
}

std::string RunDir(const Options& options) {
  return (std::filesystem::path(options.out_dir) /
          ("run-" + std::to_string(static_cast<long>(::getpid()))))
      .string();
}

std::string FreshDir(const Options& options, const std::string& name) {
  std::filesystem::path dir = std::filesystem::path(RunDir(options)) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void ReportTraceSummary(const Tracer& tracer, double traced_wall_s, double untraced_wall_s,
                        RunResult* result) {
  std::map<std::string, double> self = tracer.SelfSecondsByLayer();
  double root = tracer.RootSeconds();
  double covered = 0.0;
  char line[160];
  for (const auto& [layer, seconds] : self) {
    if (layer == "root") continue;
    covered += seconds;
    std::snprintf(line, sizeof(line), "  self time %-16s %10.4f s  (%5.1f%% of traced op time)",
                  layer.c_str(), seconds, root > 0 ? 100.0 * seconds / root : 0.0);
    result->Note(line);
  }
  result->Set("trace.coverage", root > 0 ? covered / root : 0.0, "frac");
  result->Set("trace.overhead_frac",
              untraced_wall_s > 0 ? (traced_wall_s - untraced_wall_s) / untraced_wall_s : 0.0,
              "frac");
  result->Set("trace.spans", static_cast<double>(tracer.num_spans()), "count");
  std::snprintf(line, sizeof(line),
                "  traced replay %.3f s vs untraced %.3f s; %zu spans",
                traced_wall_s, untraced_wall_s, tracer.num_spans());
  result->Note(line);
}

}  // namespace qbench
