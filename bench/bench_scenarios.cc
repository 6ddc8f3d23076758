// Scenario matrix: named end-to-end campaigns against a live AuthGateway
// (analysis/scenarios.h). Each scenario prints its summary, checks its own
// invariants, and optionally writes one JSON artifact; a failed invariant
// fails the process, so CI can gate on the exit code.
//
// Flags:
//   --scenario=NAME  one of --list, or "all" (default)
//   --list           print scenario names and exit
//   --smoke          tiny preset for CI (small corpus, few trials)
//   --users=N --seed=N --trials=N
//   --json-dir=DIR   write BENCH_scenarios_<name>.json per scenario
//   --metrics-table  dump the gateway metric tables after each scenario
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/scenarios.h"
#include "util/args.h"
#include "util/stopwatch.h"

using namespace sy;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);

  if (args.get_flag("list")) {
    for (const auto& name : analysis::scenario_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const bool smoke = args.get_flag("smoke");
  analysis::ScenarioOptions options;
  if (smoke) {
    options.n_users = 4;
    options.windows_per_context = 60;
    options.attackers_per_victim = 1;
    options.trials_per_attacker = 2;
    options.pickup_sessions = 2;
    options.drift_days = 6.0;
    options.burst_rounds = 4;
    options.storm_rounds = 3;
    options.overload_threads = 6;
    options.overload_requests_per_thread = 25;
  }
  options.n_users = static_cast<std::size_t>(
      args.get_int("users", static_cast<int>(options.n_users)));
  options.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<int>(options.seed)));
  options.trials_per_attacker = static_cast<std::size_t>(args.get_int(
      "trials", static_cast<int>(options.trials_per_attacker)));

  const std::string which = args.get("scenario", "all");
  std::vector<std::string> selected;
  if (which == "all") {
    selected = analysis::scenario_names();
  } else {
    selected.push_back(which);
  }

  const std::string json_dir = args.get("json-dir", "");
  if (!json_dir.empty()) std::filesystem::create_directories(json_dir);

  std::printf("scenario matrix — %zu scenario(s), %zu users%s\n",
              selected.size(), options.n_users, smoke ? " [smoke]" : "");

  int failures = 0;
  for (const auto& name : selected) {
    util::Stopwatch timer;
    analysis::ScenarioResult result;
    try {
      result = analysis::run_scenario(name, options);
    } catch (const std::exception& e) {
      // Caught so the scenario's cleanup (temp dirs, a forked child) runs.
      result.name = name;
      result.passed = false;
      result.failures.push_back(std::string("threw: ") + e.what());
    }
    std::printf("\n=== %s (%.1f s) — %s ===\n", result.name.c_str(),
                timer.elapsed_seconds(), result.passed ? "PASS" : "FAIL");
    for (const auto& [key, value] : result.summary) {
      std::printf("  %-28s %.6g\n", key.c_str(), value);
    }
    if (!result.survival_fraction.empty()) {
      std::printf("  survival:");
      for (std::size_t k = 0; k < result.survival_fraction.size(); ++k) {
        std::printf(" %.0fs=%.2f", result.survival_time_s[k],
                    result.survival_fraction[k]);
      }
      std::printf("\n");
    }
    for (const auto& failure : result.failures) {
      std::printf("  INVARIANT VIOLATED: %s\n", failure.c_str());
    }
    if (args.get_flag("metrics-table")) {
      std::printf("%s", obs::render_table(result.metrics).c_str());
    }
    if (!result.passed) ++failures;

    if (!json_dir.empty()) {
      const std::string path =
          json_dir + "/BENCH_scenarios_" + result.name + ".json";
      std::ofstream json(path);
      if (!json) {
        std::fprintf(stderr, "bench_scenarios: cannot write %s\n",
                     path.c_str());
        return 1;
      }
      json << analysis::scenario_json(result);
      std::printf("  json: wrote %s\n", path.c_str());
    }
  }

  if (failures > 0) {
    std::fprintf(stderr, "\nbench_scenarios: %d scenario(s) FAILED\n",
                 failures);
    return 1;
  }
  std::printf("\nall scenarios passed\n");
  return 0;
}
