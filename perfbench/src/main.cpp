// Benchmark entry point:
//   perfbench --workload <serve_tick|serve_paced|train_eval> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
// Prints human-readable progress, the per-operation counts and, as the
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end metrics of
// common.hpp's kEndToEnd; with --trace 1 they are the per-layer metrics of
// kPerLayer, taken from a traced run. Every workload reports all of them.
// Exit code 0 unless the arguments are unusable or the workload threw.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/logging.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_tick|serve_paced|train_eval> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

void print_metric(const perfbench::Metric& m, bool first) {
  // %.17g keeps every digit the measurement has.
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
              m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (opt.work_dir.empty()) return usage("--work-dir is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");

  mirage::util::set_log_level(mirage::util::LogLevel::kWarn);
  std::error_code ec;
  std::filesystem::remove_all(opt.work_dir, ec);
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) return usage(("cannot create work dir: " + ec.message()).c_str());
  opt.spans_path = (std::filesystem::path(opt.work_dir).parent_path() /
                    ("spans-" + opt.workload + "-" + std::to_string(opt.seed) + ".csv"))
                       .string();

  perfbench::Result result;
  try {
    if (opt.workload == "serve_tick") {
      perfbench::run_serve_tick(opt, result);
    } else if (opt.workload == "serve_paced") {
      perfbench::run_serve_paced(opt, result);
    } else if (opt.workload == "train_eval") {
      perfbench::run_train_eval(opt, result);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }
  std::filesystem::remove_all(opt.work_dir, ec);

  if (opt.trace && !result.details.empty()) {
    std::printf("\n%-28s %16s  %s\n", "workload-only layer", "value", "unit");
    for (const auto& m : result.details) {
      std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("\n");
  result.ops.print();
  // The result line carries every metric of the list, in its order.
  std::vector<perfbench::Metric> metrics;
  auto collect = [&](const auto& specs, const std::vector<perfbench::Metric>& got) {
    for (const auto& spec : specs) {
      double value = std::nan("");
      for (const auto& m : got) {
        if (m.name == spec.name) value = m.value;
      }
      if (!std::isfinite(value)) {
        result.check(false, std::string("metric ") + spec.name + " is reported as a finite number");
        value = 0.0;  // keep the JSON valid; the run is already marked incorrect
      }
      metrics.push_back({spec.name, value, spec.unit});
    }
  };
  if (opt.trace) {
    collect(perfbench::kPerLayer, result.per_layer);
  } else {
    collect(perfbench::kEndToEnd, result.end_to_end);
  }
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.ops.total_attempted()),
              static_cast<unsigned long long>(result.ops.total_failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) print_metric(metrics[i], i == 0);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
