// Unified observability: process-wide metrics registry (ISSUE 6 tentpole).
//
// Three instrument kinds, all allocation-free and lock-free on the update
// path so instrumented hot loops (the simulator's zero-steady-state-alloc
// contract, the serve tick) keep their guarantees with metrics ON:
//
//   Counter    monotonically increasing u64; updates are relaxed atomic
//              adds into one of kShards cache-line-separated slots picked
//              by a per-thread id, so concurrent writers do not bounce one
//              line. value() sums the shards.
//   Gauge      last-written double (free nodes, queue depth, sessions).
//   Histogram  fixed exponential buckets (power-of-2 in microseconds up to
//              ~1 hour) plus sharded count/sum; bucket index is computed
//              from the exponent bits, so record() is a handful of integer
//              ops and two relaxed adds. percentile() interpolates within
//              the bucket — coarse but monotone. A gate that must never
//              read low (the serve soak's p99 bound) takes
//              percentile_upper_seconds(): the upper edge of the bucket
//              holding the rank, which is never below the exact value.
//              The serve tier's one latency record is such a histogram
//              (mirage_serve_decision_latency_seconds).
//
// Registration (registry().counter("name") etc.) allocates and takes a
// mutex — do it once at startup or via a function-local static, never per
// update. Handles are stable for the registry's lifetime (deque storage).
//
// Instrumentation is runtime-toggleable: obs::set_enabled(false) turns
// every OBS_SPAN and trace hook into a relaxed load + branch. Metrics
// never feed back into simulation results — the registry is write-only
// from the domain's point of view, which is what keeps parallel==serial
// sweep results bitwise identical with metrics on or off.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace mirage::obs {

/// Global instrumentation switch (spans + trace hooks). Metrics handles
/// stay usable either way; the flag gates the hooks sprinkled through hot
/// paths. Relaxed: toggling mid-flight is best-effort by design.
bool enabled();
void set_enabled(bool on);

namespace detail {
inline constexpr std::size_t kShards = 16;
/// Dense per-thread slot in [0, kShards) — stable for the thread's life.
std::size_t thread_shard();

struct alignas(64) PaddedCount {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[detail::thread_shard()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }
  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  detail::PaddedCount shards_[detail::kShards];
};

class Gauge {
 public:
  void set(double v) { bits_.store(to_bits(v), std::memory_order_relaxed); }
  double value() const { return from_bits(bits_.load(std::memory_order_relaxed)); }

 private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t b);
  std::atomic<std::uint64_t> bits_{0};
};

/// Fixed exponential buckets over seconds: bucket i holds samples in
/// [2^(i-1), 2^i) microseconds; bucket 0 is < 1us, the last is overflow
/// (>= ~1.2 hours). 33 buckets cover the whole range with one clz.
///
/// Buckets can carry EXEMPLARS: record(seconds, exemplar_id) stamps the
/// sample's bucket with the id (a trace/request id), last-writer-wins.
/// That is the link from an aggregate percentile back to one concrete
/// request journey in the trace ring: exemplar_for_percentile(99.9)
/// returns the id of a real request that landed in (or nearest to) the
/// p99.9 bucket. Exemplar stores are relaxed and deliberately unsharded —
/// a torn id/value pair under contention is acceptable for a diagnostic
/// pointer and keeps record() allocation-free.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 33;

  struct Exemplar {
    std::uint64_t id = 0;      ///< trace/request id stamped by record()
    double seconds = 0.0;      ///< the exemplar sample's value
    bool valid = false;
  };

  void record(double seconds);
  /// Record and stamp the sample's bucket with `exemplar_id`.
  void record(double seconds, std::uint64_t exemplar_id);
  std::uint64_t count() const;
  double sum() const;
  double mean() const {
    const auto n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
  }
  std::uint64_t bucket(std::size_t i) const;
  /// Upper bound of bucket i in seconds (+inf for the overflow bucket).
  static double bucket_upper_seconds(std::size_t i);
  /// Monotone bucket-interpolated percentile estimate, q in [0,100].
  double percentile(double q) const;
  /// Upper edge of the bucket holding the q-th percentile rank: never
  /// below the exact percentile of the recorded samples (0 when empty).
  double percentile_upper_seconds(double q) const;
  /// Exemplar stamped on bucket i (valid=false when none recorded).
  Exemplar exemplar(std::size_t i) const;
  /// Exemplar of the bucket holding the q-th percentile rank, falling back
  /// to the nearest stamped bucket (below first, then above). The returned
  /// id is a concrete trace/request id behind that latency region.
  Exemplar exemplar_for_percentile(double q) const;
  void reset();

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> counts[kBuckets] = {};
    std::atomic<std::uint64_t> n{0};
    std::atomic<std::uint64_t> sum_us{0};
  };
  /// One slot per bucket, unsharded: stamp > 0 marks a recorded exemplar.
  struct ExemplarSlot {
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> value_bits{0};  ///< double bit pattern
    std::atomic<std::uint64_t> stamp{0};
  };
  /// The one rank walk: the bucket holding the q-th percentile rank, plus
  /// what interpolating inside it needs.
  struct RankPosition {
    std::uint64_t count = 0;      ///< samples seen by the walk
    std::uint64_t rank = 0;
    std::size_t bucket = 0;
    std::uint64_t below = 0;      ///< samples in the buckets under `bucket`
    std::uint64_t in_bucket = 0;  ///< samples in `bucket`
  };
  RankPosition percentile_bucket(double q) const;
  Shard shards_[detail::kShards];
  ExemplarSlot exemplars_[kBuckets];
};

/// Named metric directory. register-once / update-forever: handles are
/// stable pointers into deque storage. Lookup by name takes the registry
/// mutex — cache the handle (e.g. in a function-local static).
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name, const std::string& help = "");
  Gauge* gauge(const std::string& name, const std::string& help = "");
  Histogram* histogram(const std::string& name, const std::string& help = "");

  /// Prometheus text exposition (counters, gauges, histogram buckets with
  /// cumulative "le" semantics + _count/_sum). Deterministic order
  /// (registration order).
  std::string to_prometheus() const;

  /// Reset every instrument to zero (tests and bench phases).
  void reset_all();

  std::size_t size() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    Counter* counter = nullptr;
    Gauge* gauge = nullptr;
    Histogram* histogram = nullptr;
  };

  mutable std::mutex mutex_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  std::vector<Entry> entries_;
};

/// Process-wide registry (sim passes, serve ticks, lab jobs all land here).
MetricsRegistry& registry();

/// Line-level validity check over a Prometheus text exposition (the output
/// of to_prometheus() / serve's metrics_text()). Enforced rules:
///   - every sample line parses: name{labels} value, labels properly
///     quoted with only \\ \" \n escapes inside quoted values;
///   - at most one # TYPE and one # HELP per metric family, TYPE naming a
///     known type, both preceding the family's first sample;
///   - every sample belongs to a TYPE-declared family (histogram samples
///     match <family>_bucket/_count/_sum, summaries <family>{quantile=}/
///     _count/_sum);
///   - histogram bucket series are cumulative (non-decreasing in le order,
///     ending at le="+Inf") and bucket{+Inf} == _count;
///   - summary quantile values are non-decreasing in the quantile;
///   - OpenMetrics-style exemplars (" # {key=\"v\"} value" after a bucket
///     sample) are accepted and their payload validated.
/// Returns false with a line-numbered diagnostic in *error on violation.
/// This is the scrape-format gate the obs tests and the future lab canary
/// daemon run over health/metrics endpoints.
bool lint_prometheus_exposition(const std::string& text, std::string* error = nullptr);

}  // namespace mirage::obs
