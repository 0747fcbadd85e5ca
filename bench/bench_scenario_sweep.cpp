// Scenario sweep scaling bench: run the same scenario matrix at several
// thread-pool sizes and report wall time (median of 3 sweeps each) +
// speedup vs 1 thread. Cells are pure functions of their specs with
// pre-assigned seeds, so the sweep is embarrassingly parallel — on an
// 8-core machine the 8-thread run should clear 4x over 1 thread (the
// acceptance bar); results are asserted bitwise identical across all
// thread counts.
//
// The observability satellite adds two gates on top of the scaling runs:
// the steady-state allocation audit executes with metrics, spans and a
// trace ring all enabled (the zero-alloc contract must hold with
// instrumentation ON), and tracing-off vs tracing-on runs at the best
// thread count must agree bitwise while costing < obs_overhead_max
// (default 3%). The overhead is the median over `obs_reps` interleaved
// off/on pairs of the on/off wall-time ratio, each side timed over a
// window of repeated sweeps (~1 s of wall time), so one noisy window
// cannot fail it.
//
//   ./bench_scenario_sweep [threads=1,2,4,8] [cells=16] [months=3] [scale=0.4]
//                          [obs_overhead_max=0.03] [obs_reps=31]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"
#include "sim/simulator.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time_utils.hpp"

namespace {

/// Steady-state allocation audit: replay one cell's simulation, warm up to
/// the midpoint of its horizon (every hot container has reached its high-
/// water capacity by then), and count heap allocations per scheduler pass
/// over the remainder. The incremental scheduling kernel's contract is
/// that this is exactly zero — machine-checked here via the counting
/// operator new in bench/alloc_hooks.cpp, not asserted in a comment.
/// Returns false (and the bench exits nonzero) when the contract is
/// broken, so an allocation regression fails CI rather than landing as a
/// silently changed JSON field. The tolerance of 0.01 allocations/pass
/// separates a genuine per-pass allocation (>= 1.0) from stray amortized
/// container growth.
bool audit_steady_state_allocs(const mirage::scenario::ScenarioSpec& spec,
                               mirage::bench::BenchJson& json) {
  using namespace mirage;
  // The contract must hold with instrumentation ON: spans recording into
  // registry histograms and a fixed-capacity trace ring attached. Both are
  // pre-allocated (ring at construction, span sites during warmup), so the
  // steady-state count stays zero with metrics enabled.
  obs::set_enabled(true);
  obs::TraceRing ring(1 << 16);
  auto workload = scenario::build_workload(spec);
  sim::Simulator sim(scenario::to_cluster_model(spec.resolved_preset()), spec.scheduler);
  sim.set_trace(&ring);
  sim.load_workload(std::move(workload));
  for (const auto& ev : scenario::capacity_events(spec)) sim.schedule_cluster_event(ev);
  sim.run_until(static_cast<util::SimTime>(spec.months_end) * util::kMonth / 2);
  const std::uint64_t allocs_before = bench::allocation_count();
  const std::uint64_t passes_before = sim.scheduler_passes();
  sim.run_to_completion();
  const std::uint64_t allocs = bench::allocation_count() - allocs_before;
  const std::uint64_t passes = sim.scheduler_passes() - passes_before;
  const double per_pass = passes ? static_cast<double>(allocs) / static_cast<double>(passes) : 0.0;
  std::printf("steady state (metrics on): %llu heap allocations over %llu scheduler passes "
              "(%.4f/pass), %llu trace events\n",
              static_cast<unsigned long long>(allocs), static_cast<unsigned long long>(passes),
              per_pass, static_cast<unsigned long long>(ring.recorded()));
  json.add("steady_allocs", static_cast<std::int64_t>(allocs));
  json.add("steady_passes", static_cast<std::int64_t>(passes));
  json.add("steady_allocs_per_pass", per_pass);
  json.add("steady_trace_events", static_cast<std::int64_t>(ring.recorded()));
  return per_pass <= 0.01;
}

/// Wall time of one sweep at a fixed thread count, plus the combined
/// schedule hash of its cells: comparing hashes across thread counts and
/// tracing modes is the bitwise determinism check.
struct SweepTiming {
  double seconds = 0.0;
  std::uint64_t hash = 0;
};

SweepTiming time_sweep(const std::vector<mirage::scenario::ScenarioSpec>& cells,
                       std::size_t threads, mirage::scenario::SweepTrace* trace) {
  using namespace mirage;
  SweepTiming timing;
  const double t0 = util::wall_seconds();
  const auto report = scenario::SweepRunner(threads).run(cells, trace);
  timing.seconds = util::wall_seconds() - t0;
  timing.hash = util::kFnv1a64Basis;
  for (const auto& c : report.cells) timing.hash ^= c.schedule_hash;
  return timing;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mirage;
  using scenario::ScenarioEventKind;

  const auto cli = util::Config::from_args(argc, argv);

  scenario::SweepMatrix matrix;
  matrix.base.cluster = cli.get_string("cluster", "a100");
  matrix.base.months_begin = 0;
  matrix.base.months_end = static_cast<std::int32_t>(cli.get_int("months", 3));
  matrix.base.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  matrix.base.job_count_scale = cli.get_double("scale", 0.4);

  const std::int32_t half = matrix.base.resolved_preset().node_count / 2;
  matrix.reservation_depths = {1, 8};
  matrix.event_profiles = {
      {"none", {}},
      {"outage",
       {{ScenarioEventKind::kNodeDown, 20 * util::kDay, half, 0, 0, 0, 600},
        {ScenarioEventKind::kNodeRestore, 23 * util::kDay, half, 0, 0, 0, 600}}},
  };
  // Scale the utilization axis until the matrix reaches the requested size.
  const auto target_cells = static_cast<std::size_t>(cli.get_int("cells", 16));
  for (double u = 0.85; matrix.cell_count() < target_cells; u += 0.07) {
    matrix.utilization_scales.push_back(u);
  }

  const auto cells = matrix.expand();
  std::printf("bench_scenario_sweep: %zu cells, months=%d, scale=%.2f\n", cells.size(),
              matrix.base.months_end, matrix.base.job_count_scale);

  std::vector<std::size_t> thread_counts;
  {
    const std::string arg = cli.get_string("threads", "1,2,4,8");
    std::size_t pos = 0;
    while (pos <= arg.size()) {
      auto comma = arg.find(',', pos);
      if (comma == std::string::npos) comma = arg.size();
      if (comma > pos) {
        thread_counts.push_back(
            static_cast<std::size_t>(std::atoll(arg.substr(pos, comma - pos).c_str())));
      }
      pos = comma + 1;
    }
  }

  // The thread-scaling loop is the instrumentation-off baseline; the
  // overhead pair below re-enables obs explicitly.
  obs::set_enabled(false);
  double base_seconds = 0.0;
  std::uint64_t base_hash = 0;
  bench::BenchJson json("scenario_sweep");
  // Workload fingerprint: bench_compare only gates cells_per_sec between
  // runs whose parameters match (a resized preset resets the baseline).
  json.add("params", "cells=" + std::to_string(cells.size()) +
                         ",months=" + std::to_string(matrix.base.months_end) +
                         ",scale=" + std::to_string(matrix.base.job_count_scale) +
                         ",cluster=" + matrix.base.cluster);
  json.add("cells", static_cast<std::int64_t>(cells.size()));
  // Each thread count is timed over kScalingSweeps sweeps and scored by
  // their median, so one slow or lucky sweep can neither pick the thread
  // count nor set the gated cells_per_sec.
  constexpr int kScalingSweeps = 3;
  double best_cells_per_sec = 0.0;
  double best_seconds = 0.0;
  std::size_t best_threads = 0;
  for (const std::size_t threads : thread_counts) {
    std::vector<double> sweep_seconds;
    bool identical = true;
    for (int rep = 0; rep < kScalingSweeps; ++rep) {
      const SweepTiming timing = time_sweep(cells, threads, nullptr);
      // The very first sweep fixes the reference hash all others match.
      if (base_seconds == 0.0 && rep == 0) base_hash = timing.hash;
      identical = identical && timing.hash == base_hash;
      sweep_seconds.push_back(timing.seconds);
    }
    const double seconds = util::percentile(sweep_seconds, 50.0);
    if (base_seconds == 0.0) base_seconds = seconds;
    const double cells_per_sec = static_cast<double>(cells.size()) / seconds;
    std::printf("  threads=%2zu  %7.2fs  speedup %5.2fx  cells/s %6.2f  identical=%s"
                "  (median of %d sweeps)\n",
                threads, seconds, base_seconds / seconds, cells_per_sec,
                identical ? "yes" : "NO", kScalingSweeps);
    json.add("wall_seconds_t" + std::to_string(threads), seconds);
    json.add("cells_per_sec_t" + std::to_string(threads), cells_per_sec);
    if (cells_per_sec > best_cells_per_sec) {
      best_cells_per_sec = cells_per_sec;
      best_seconds = seconds;
      best_threads = threads;
    }
    if (!identical) {
      std::printf("ERROR: results diverged at threads=%zu\n", threads);
      return 1;
    }
  }
  json.add("threads", static_cast<std::int64_t>(best_threads));
  json.add("cells_per_sec", best_cells_per_sec);

  // ---- observability overhead gate: tracing off vs on at best_threads ----
  // Same cells, same thread count; the only difference is obs::enabled()
  // plus a per-cell trace ring. Results must stay bitwise identical and
  // the median paired on/off wall-time ratio must stay under
  // 1+obs_overhead_max. Each pair times ~kWindowSeconds of sweeps per side,
  // interleaved one sweep at a time in off/on, on/off order so slow drift
  // charges both sides alike; the median over pairs then discards the
  // pairs a scheduler hiccup landed in.
  constexpr double kWindowSeconds = 1.0;
  const double overhead_max = cli.get_double("obs_overhead_max", 0.03);
  const int pairs = std::max(1, static_cast<int>(cli.get_int("obs_reps", 31)));
  // An even sweep count per side, so off-first and on-first sweeps balance.
  const int runs =
      2 * std::max(1, static_cast<int>(std::ceil(kWindowSeconds / (2 * best_seconds))));
  bool hashes_ok = true;
  scenario::SweepTrace trace;
  // Ring allocation is one-time setup, not steady-state tracing cost —
  // keep it outside the timed windows so the gate measures the per-event
  // price, not a 25 MB calloc.
  trace.prepare(cells);
  std::vector<double> ratios;
  double off_wall = 0.0, on_wall = 0.0;
  for (int p = 0; p < pairs; ++p) {
    double off = 0.0, on = 0.0;
    for (int r = 0; r < runs; ++r) {
      for (int side = 0; side < 2; ++side) {
        const bool tracing = (side == 0) == (r % 2 == 1);
        obs::set_enabled(tracing);
        const SweepTiming timing = time_sweep(cells, best_threads, tracing ? &trace : nullptr);
        hashes_ok = hashes_ok && timing.hash == base_hash;
        (tracing ? on : off) += timing.seconds;
      }
    }
    off_wall += off;
    on_wall += on;
    ratios.push_back(on / off);
  }
  const double median_ratio = util::percentile(ratios, 50.0);
  const double overhead = std::max(0.0, median_ratio - 1.0);
  const double swept = static_cast<double>(cells.size()) * runs * pairs;
  const double off_cps = swept / off_wall;
  const double on_cps = swept / on_wall;
  std::printf("obs overhead: %d pairs x %d sweeps, on/off wall ratio min %.4f median %.4f "
              "max %.4f (%.2f%%, max %.0f%%), off %6.2f cells/s, on %6.2f cells/s, "
              "%llu trace events, identical=%s\n",
              pairs, runs, *std::min_element(ratios.begin(), ratios.end()), median_ratio,
              *std::max_element(ratios.begin(), ratios.end()), 100.0 * overhead,
              100.0 * overhead_max, off_cps, on_cps,
              static_cast<unsigned long long>(trace.total_events()), hashes_ok ? "yes" : "NO");
  json.add("cells_per_sec_obs_off", off_cps);
  json.add("cells_per_sec_obs_on", on_cps);
  json.add("obs_overhead_frac", overhead);
  json.add("obs_trace_events", static_cast<std::int64_t>(trace.total_events()));

  // Audit the heaviest expanded cell (last in expansion order: highest
  // utilization axis value, eventful profile) for steady-state allocations
  // — with instrumentation enabled.
  const bool zero_alloc = audit_steady_state_allocs(cells.back(), json);
  json.add_resource_fields();
  json.write();
  if (!hashes_ok) {
    std::printf("ERROR: sweep results diverged between tracing off and on\n");
    return 1;
  }
  if (overhead > overhead_max) {
    std::printf("ERROR: observability overhead %.2f%% exceeds the %.0f%% budget\n",
                100.0 * overhead, 100.0 * overhead_max);
    return 1;
  }
  if (!zero_alloc) {
    std::printf("ERROR: steady-state scheduler passes allocated on the heap with metrics "
                "enabled (zero-allocation contract broken)\n");
    return 1;
  }
  return 0;
}
