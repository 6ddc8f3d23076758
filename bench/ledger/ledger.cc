// ledger: runs one workload of the repository benchmark and prints its
// metrics. run.py builds this binary and is the normal way to call it.
//
//   ledger --workload=NAME --seed=N --seconds=S --trace=0|1
//          --work-dir=DIR --spans-dir=DIR [--smoke]
//
// Progress, check results and a readable metric table go to stderr. On
// stdout, a "# env" line names the numeric backend and thread count, and
// the last line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.
#include <sched.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "ledger.h"
#include "num/backend.h"
#include "util/args.h"

namespace {

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

unsigned available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
}

const ledger::Metric* find(const ledger::Report& report, const char* name) {
  for (const auto& m : report.metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// The paper's §V-H figures, next to the measured values they bound.
void print_paper_budget(const ledger::Options& options,
                        const ledger::Report& report) {
  const auto* p50 = find(report, "op_ms_p50");
  if (p50 != nullptr && options.workload == "window_stream") {
    std::fprintf(stderr,
                 "paper §V-H: < 21 ms per 6 s window; measured window p50 "
                 "%.3f ms\n",
                 p50->value);
  }
  if (p50 != nullptr && options.workload == "enroll_burst") {
    std::fprintf(stderr,
                 "paper §V-H: 0.065 s to train a user; measured enroll p50 "
                 "%.3f s\n",
                 p50->value / 1e3);
  }
  if (const auto* kb = find(report, "model_store.bundle_kb")) {
    std::fprintf(stderr,
                 "paper §V-H: ~3 MB resident; one model bundle is %.1f KB\n",
                 kb->value);
  }
  if (const auto* rss = find(report, "peak_rss_mb")) {
    std::fprintf(stderr,
                 "paper §V-H: ~3 MB resident; this whole process (inputs, "
                 "population and gateway) peaked at %.1f MB\n",
                 rss->value);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const sy::util::Args args(argc, argv);
  ledger::Options options;
  options.workload = args.get("workload", "");
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  options.seconds = args.get_double("seconds", 10.0);
  options.trace = args.get_int("trace", 0) != 0;
  options.smoke = args.get_flag("smoke");
  options.work_dir = args.get("work-dir", "");
  options.spans_dir = args.get("spans-dir", "");
  options.threads = available_cpus();
  if (options.work_dir.empty() || options.spans_dir.empty() ||
      options.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: ledger --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 --work-dir=DIR --spans-dir=DIR [--smoke]\n");
    return 2;
  }

  ledger::Report report;
  try {
    std::filesystem::create_directories(options.work_dir);
    report = ledger::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    std::error_code ec;
    std::filesystem::remove_all(options.work_dir, ec);
    return 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);

  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) report.check(false, m.name + " is finite");
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  print_paper_budget(options, report);

  const std::string backend{
      sy::num::backend_name(sy::num::active_backend())};
  std::printf("# env {\"backend\": \"%s\", \"nproc\": %u}\n", backend.c_str(),
              options.threads);
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
