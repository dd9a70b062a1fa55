// qbench: the qsteer end-to-end benchmark program.
//
//   qbench --workload discover|serve-hot|fleet-mixed [--seed N] [--seconds S]
//          [--trace 0|1] [--inject corrupt-digest|drop-mutation]
//          [--out-dir DIR] [--digests FILE]
//
// Prints a human-readable report, then one JSON line with every metric the
// workload measured (qbench/run.py selects the ones BENCHMARK.json names).
// Exits 0 when every output check passed, 1 when one failed, 2 on bad
// usage and 3 when the binary is not fit to measure (Debug or sanitizer).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload discover|serve-hot|fleet-mixed "
               "[--seed N] [--seconds S] [--trace 0|1] [--inject corrupt-digest|drop-mutation] "
               "[--out-dir DIR] [--digests FILE]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  qbench::Options options;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--inject") {
      options.inject = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--digests") {
      options.digests_file = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0) return Usage("--seconds must be positive");
  if (!options.inject.empty() && options.inject != "corrupt-digest" &&
      options.inject != "drop-mutation") {
    return Usage("unknown --inject fault");
  }
  qbench::RunResult (*run)(const qbench::Options&) = nullptr;
  if (options.workload == "discover") run = qbench::RunDiscover;
  if (options.workload == "serve-hot") run = qbench::RunServeHot;
  if (options.workload == "fleet-mixed") run = qbench::RunFleetMixed;
  if (run == nullptr) return Usage("unknown workload");

  const char* rev = std::getenv("QBENCH_SOURCE_REV");
  std::printf("qbench %s seed=%llu seconds=%g trace=%d | nproc=%d build=%s compiler=%s rev=%s\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, qbench::HostCores(),
              qbench::BuildType().c_str(), qbench::CompilerVersion().c_str(),
              rev != nullptr ? rev : "unknown");
  std::string unfit = qbench::UnfitBuildReason();
  if (!unfit.empty()) {
    std::fprintf(stderr, "qbench: refusing to measure: %s\n", unfit.c_str());
    return 3;
  }
  std::filesystem::create_directories(options.out_dir);

  qbench::RunResult result = run(options);
  std::filesystem::remove_all(qbench::RunDir(options));

  for (const std::string& note : result.notes()) std::printf("%s\n", note.c_str());
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics()) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
