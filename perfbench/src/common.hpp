// Shared pieces of the benchmark: clocks, operation accounting, in-memory
// spans, the list of metrics every workload reports and the result record
// it fills in. Allocation counts and peak RSS come from the repo's
// bench/alloc_hooks.cpp (mirage::bench::allocation_count, peak_rss_kb in
// bench_common.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "util/stats.hpp"

namespace perfbench {

/// Monotonic wall clock, seconds.
double now_s();
/// CPU time of the whole process (every thread), seconds.
double process_cpu_s();
/// Peak resident set size of the process so far, MiB.
inline double peak_rss_mb() { return static_cast<double>(mirage::bench::peak_rss_kb()) / 1024.0; }

inline double median(const std::vector<double>& values) {
  return mirage::util::percentile(values, 50.0);
}

/// Attempted and failed operations of each kind the workloads perform.
enum class Op { kObserve, kDecide, kOpen, kClose, kEpisode, kTrainStep, kCount };

struct OpCounts {
  std::uint64_t attempted[static_cast<int>(Op::kCount)] = {};
  std::uint64_t failed[static_cast<int>(Op::kCount)] = {};

  void attempt(Op op, std::uint64_t n = 1) { attempted[static_cast<int>(op)] += n; }
  void fail(Op op, std::uint64_t n = 1) { failed[static_cast<int>(op)] += n; }
  std::uint64_t total_attempted() const;
  std::uint64_t total_failed() const;
  void print() const;
};

/// Spans kept in memory and written out when the run ends. A span has a
/// name, start and end, the index of the span that caused it (-1 for a
/// root) and the request or episode it belongs to. One Tracer is used
/// from one thread; when tracing is off every call is a no-op.
class Tracer {
 public:
  explicit Tracer(bool on);

  /// Open a span; returns its index (or -1 when tracing is off).
  int begin(const char* name, std::uint64_t id, int parent = -1);
  void end(int span);
  /// Record a finished span whose name is known only once it ended.
  void record(const char* name, std::uint64_t id, int parent, double start, double end);

  /// Spans of `name`: count, summed duration, summed self time (duration
  /// minus the part of it covered by child spans) and median duration.
  struct Summary {
    std::size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    double p50_s = 0.0;
  };
  Summary summary(const std::string& name) const;
  /// Print the per-name table (count, total, self, p50) to stdout.
  void print_table() const;
  /// Write every span as CSV (name,id,parent,start_s,end_s).
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t id;
    int parent;
    double start;
    double end;
  };
  std::vector<double> self_times() const;

  bool on_;
  double origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t id, int parent = -1)
      : tracer_(tracer), index_(tracer.begin(name, id, parent)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The metrics of the result line, in BENCHMARK.json's order: every
/// workload reports every one, the end-to-end metrics from an untraced run
/// and the per-layer metrics from a traced run. Each workload gives them
/// its own meaning (perfbench/README.md has the table).
inline constexpr MetricSpec kEndToEnd[] = {
    {"latency_ms", "ms"},
    {"cpu_ms_per_decision", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};
inline constexpr MetricSpec kPerLayer[] = {
    {"nn.infer_ms.b1", "ms"},       {"nn.infer_ms.b64", "ms"},
    {"nn.infer_ms.b64.t1", "ms"},   {"nn.infer_allocs.b1", "count"},
    {"nn.infer_allocs.b64", "count"}, {"nn.embed_ms", "ms"},
    {"nn.mhsa_ms", "ms"},           {"nn.ffn_ms", "ms"},
    {"nn.layernorm_ms", "ms"},      {"nn.gelu_ms", "ms"},
    {"nn.gate_ms", "ms"},           {"nn.head_ms", "ms"},
    {"nn.linear_gflops", "GFLOP/s"}, {"nn.q_pair_us", "us"},
    {"nn.q_pair_allocs", "count"},  {"rl.pretrain_step_ms", "ms"},
    {"rl.observation_us", "us"},    {"trace.generate_s", "s"},
    {"sim.build_ms", "ms"},         {"sim.step_us", "us"},
    {"trace.overhead_pct", "%"},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Everything a workload reports. `correct` is the conjunction of its
/// output checks; each failed check is also printed with a reason.
/// `details` are figures of layers only this workload has (engine, session
/// table, journal, training phases); a traced run prints them but they are
/// not part of the result line, which carries the metrics every workload
/// shares.
struct Result {
  bool correct = true;
  OpCounts ops;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> details;

  void check(bool ok, const std::string& what);
  /// Record a metric named in kEndToEnd / kPerLayer (throws otherwise).
  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);
  void detail(const std::string& name, double value, const std::string& unit) {
    details.push_back({name, value, unit});
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory (inside the checkout) for checkpoints and journals.
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string spans_path;
};

/// Generator seed of the A100 trace every workload replays (the
/// generator's default).
inline constexpr std::uint64_t kTraceSeed = 42;

/// Set-up repetitions per serving run, before the measured window (the
/// last one is kept) and after it. The host's speed drifts from one second
/// to the next, so the samples are spread over the run; setup_s is their
/// median.
inline constexpr int kSetupBefore = 2;
inline constexpr int kSetupAfter = 3;
/// Print each set-up time and return their median.
double report_setup(const std::vector<double>& times);

void run_serve_tick(const Options& opt, Result& result);
void run_serve_paced(const Options& opt, Result& result);
void run_train_eval(const Options& opt, Result& result);

}  // namespace perfbench
