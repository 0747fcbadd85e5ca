// The two serving workloads. Both drive ProvisioningService only through
// its public calls, from one generator thread, with frames recorded at
// seeded instants of a replay of the A100 trace.
//
//   serve_tick   512 sessions decide together every tick (k=144), ticks
//                back to back: the batched forward does nearly all the work.
//   serve_paced  1024 sessions visited round-robin by a seeded Poisson
//                schedule at 300 decisions/s (k=24), with session churn,
//                TTL eviction, SLO evaluation and WAL journaling on:
//                batches of ~1, so latency is set by the B=1 forward and
//                the hand-offs around it.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common.hpp"
#include "probes.hpp"
#include "core/checkpoint.hpp"
#include "rl/dqn.hpp"
#include "rl/state_encoder.hpp"
#include "rl/trainer.hpp"
#include "serve/model_registry.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mirage;
using util::SimTime;

namespace {

constexpr SimTime kCadence = 10 * util::kMinute;  // the paper's decision interval
constexpr std::size_t kFrameBank = 1024;          // frames sessions cycle through

/// What recording the frames cost: trace generation, building the
/// simulator (construction and loading the trace), and each 10-minute step.
struct FrameTimes {
  double generate_s = 0.0;
  double build_s = 0.0;
  std::vector<double> step_s;
};

/// Cluster state every 10 minutes from a replay of the A100 trace:
/// kSegments runs of consecutive frames, each starting at a seeded instant
/// in its own stretch of the trace. Encoding a frame costs more the longer
/// the queue, and queue depth swings widely from one instant (and one
/// generated trace) to the next, so every seed replays the same trace and
/// samples all of it, which keeps the work per seed alike.
std::vector<sim::StateSample> record_frames(std::uint64_t seed, FrameTimes& times) {
  constexpr std::size_t kSegments = 32;
  constexpr std::size_t kPerSegment = kFrameBank / kSegments;
  const auto preset = trace::a100_preset();
  trace::GeneratorOptions gen;
  gen.seed = kTraceSeed;
  double t0 = now_s();
  trace::Trace full = trace::SyntheticTraceGenerator(preset, gen).generate();
  times.generate_s = now_s() - t0;

  util::Rng rng(seed ^ 0xf7a3e5u);
  const SimTime lo = 2 * util::kWeek;  // past the empty-cluster start
  const SimTime stretch =
      (static_cast<SimTime>(preset.months) * util::kMonth - lo) / static_cast<SimTime>(kSegments);
  const SimTime segment = static_cast<SimTime>(kPerSegment) * kCadence;
  t0 = now_s();
  sim::Simulator sim(preset.node_count);
  sim.load_workload(std::move(full));
  times.build_s = now_s() - t0;
  std::vector<sim::StateSample> frames;
  frames.reserve(kFrameBank);
  for (std::size_t s = 0; s < kSegments; ++s) {
    const SimTime begin = lo + static_cast<SimTime>(s) * stretch;
    sim.run_until(begin + static_cast<SimTime>(rng.uniform() *
                                               static_cast<double>(stretch - segment)));
    for (std::size_t i = 0; i < kPerSegment; ++i) {
      t0 = now_s();
      sim.step(kCadence);
      times.step_s.push_back(now_s() - t0);
      frames.push_back(sim.sample());
    }
  }
  return frames;
}

/// One session's view: where in the frame bank it starts and the
/// predecessor/successor pair it provisions for.
struct SessionPlan {
  std::size_t offset = 0;
  rl::JobPairContext base;
  std::size_t frames_seen = 0;

  static SessionPlan draw(util::Rng& rng) {
    static constexpr std::int32_t kNodes[] = {1, 1, 1, 1, 2, 4, 8};
    SessionPlan p;
    p.offset = static_cast<std::size_t>(rng.uniform_int(0, kFrameBank - 1));
    p.base.pred_nodes = kNodes[rng.uniform_int(0, 6)];
    p.base.succ_nodes = p.base.pred_nodes;
    p.base.pred_wait = static_cast<SimTime>(rng.uniform(0.0, 6.0 * util::kHour));
    p.base.pred_elapsed = static_cast<SimTime>(rng.uniform(0.0, 40.0 * util::kHour));
    return p;
  }
  const sim::StateSample& frame(const std::vector<sim::StateSample>& bank) const {
    return bank[(offset + frames_seen) % bank.size()];
  }
  rl::JobPairContext context() const {
    rl::JobPairContext ctx = base;
    ctx.pred_elapsed = std::min<SimTime>(
        ctx.pred_limit, base.pred_elapsed + static_cast<SimTime>(frames_seen) * kCadence);
    return ctx;
  }
};

nn::FoundationConfig serve_net(std::size_t history_len) {
  nn::FoundationConfig net;  // heads, layers and FFN width keep their defaults
  net.history_len = history_len;
  net.state_dim = rl::kFrameDim;
  net.d_model = 32;
  net.moe_experts = 8;
  net.moe_top1 = true;
  return net;
}

rl::DqnConfig moe_dqn(const nn::FoundationConfig& net) {
  rl::DqnConfig cfg;
  cfg.foundation = nn::FoundationType::kMoE;
  cfg.net = net;
  return cfg;
}

/// A freshly initialised Top-1 MoE DQN written as a checkpoint and loaded
/// back through the registry, plus the service serving it. The registry
/// outlives the service (member order).
struct ServeStack {
  std::unique_ptr<serve::ModelRegistry> registry;
  serve::ModelKey key;
  std::uint64_t version = 0;
  std::uint64_t agent_seed = 0;  ///< seed of the checkpoint's freshly initialised agent
  std::unique_ptr<serve::ProvisioningService> service;

  ServeStack(const nn::FoundationConfig& net, std::uint64_t seed, const std::string& ckpt_path,
             const serve::ServiceConfig& config)
      : agent_seed(seed) {
    {
      rl::DqnAgent agent(moe_dqn(net), seed);
      if (!core::save_agent(agent, ckpt_path)) throw std::runtime_error("save_agent failed");
    }
    serve::RegistryConfig reg;
    reg.net_defaults = net;
    registry = std::make_unique<serve::ModelRegistry>(reg);
    const auto load = registry->load_file(ckpt_path, "a100");
    if (!load.ok) throw std::runtime_error("registry load failed: " + load.error);
    key = load.key;
    version = load.version;
    service = std::make_unique<serve::ProvisioningService>(*registry, key, config);
    service->start();
  }
  serve::ModelSnapshot model() const { return registry->lookup(key); }
};

/// A served decision kept for the bitwise check: the history the
/// benchmark's own StateEncoder built from the same frames, and what the
/// service answered.
struct CheckRecord {
  std::vector<float> observation;
  serve::Decision served;
};

/// Every kept decision must be reproduced bitwise by a B=1 infer over the
/// benchmark's own encoding of the same frames, by the loaded version.
void verify_served(const serve::ServableModel& model, std::uint64_t version,
                   const std::vector<CheckRecord>& records, Result& r) {
  std::size_t mismatches = 0;
  for (const auto& rec : records) {
    const auto d = model.infer({rec.observation}).front();
    const bool same = std::memcmp(&d.score_wait, &rec.served.score_wait, sizeof(float)) == 0 &&
                      std::memcmp(&d.score_submit, &rec.served.score_submit, sizeof(float)) == 0 &&
                      d.action == rec.served.action && rec.served.model_version == version;
    if (!same) ++mismatches;
  }
  r.check(!records.empty() && mismatches == 0,
          "served scores == B=1 infer over own StateEncoder (" + std::to_string(records.size()) +
              " sampled decisions, " + std::to_string(mismatches) + " mismatches)");
}

struct EngineWindow {
  serve::ServiceReport before;
  serve::ServiceReport after;
  double wall_s = 0.0;

  double ticks() const { return static_cast<double>(after.engine.ticks - before.engine.ticks); }
  double forward_ms() const {
    return 1e3 * (after.engine.busy_seconds - before.engine.busy_seconds) / std::max(1.0, ticks());
  }
  double mean_batch() const {
    return static_cast<double>(after.engine.requests - before.engine.requests) /
           std::max(1.0, ticks());
  }
  double busy_share() const {
    return (after.engine.busy_seconds - before.engine.busy_seconds) / wall_s;
  }
};

/// The service report once the engine has booked `requests` fulfilled
/// requests. The engine adds a batch to its stats only after fulfilling
/// it, so a report taken right after the last decision returned can miss
/// that batch.
serve::ServiceReport settled_report(const serve::ProvisioningService& service,
                                    std::uint64_t requests) {
  for (;;) {
    auto report = service.report();
    if (report.engine.requests >= requests) return report;
    std::this_thread::yield();
  }
}

/// Close every session, timing close_session.
void close_all(serve::ProvisioningService& service, const std::vector<serve::SessionId>& ids,
               Tracer& tracer, Result& r) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    r.ops.attempt(Op::kClose);
    Scope span(tracer, "close", i);
    try {
      service.close_session(ids[i]);
    } catch (const std::out_of_range&) {
      r.ops.fail(Op::kClose);
    }
  }
}

/// p50 of open_session and close_session as traced.
void report_session_calls(const Tracer& tracer, Result& r) {
  r.detail("serve.open_us", 1e6 * tracer.summary("open").p50_s, "us");
  r.detail("serve.close_us", 1e6 * tracer.summary("close").p50_s, "us");
}

/// Engine and per-call layers of a traced window. `latencies_s` (request
/// latency from due time to completion) is given only by serve_paced:
/// serve_tick collects a tick's decisions in session order after all are
/// submitted, so its per-request times are mostly queueing behind the
/// tick's other batches.
void report_serve_layers(const Tracer& tracer, const EngineWindow& w,
                         const std::vector<double>* latencies_s, Result& r) {
  r.detail("engine.forward_ms", w.forward_ms(), "ms");
  r.detail("engine.mean_batch", w.mean_batch(), "requests");
  r.detail("engine.busy_share", w.busy_share(), "ratio");
  r.detail("serve.observe_us", 1e6 * tracer.summary("observe").p50_s, "us");
  r.detail("serve.submit_us", 1e6 * tracer.summary("submit").p50_s, "us");
  r.detail("serve.evictions", static_cast<double>(w.after.evictions - w.before.evictions),
           "count");
  r.detail("serve.sweep_wakeups",
           static_cast<double>(w.after.sweep_wakeups - w.before.sweep_wakeups), "count");
  if (latencies_s) {
    r.detail("serve.decide_p50_ms", 1e3 * median(*latencies_s), "ms");
    r.detail("serve.wait_ms", 1e3 * median(*latencies_s) - w.forward_ms(), "ms");
    r.detail("serve.decide_p99_ms", 1e3 * util::percentile(*latencies_s, 99.0), "ms");
  }
}

/// The layers every workload reports, for a serving run: the frame
/// recording's trace generation, simulator build and steps (over every
/// set-up), the own StateEncoder's flatten, and the nn and rl probes at the
/// served architecture. The probe agent is the served checkpoint's agent
/// (same seed), rebuilt.
void report_shared_layers(const ServeStack& stack, const nn::FoundationConfig& net,
                          std::size_t batch, std::size_t expert_items,
                          const std::vector<FrameTimes>& frame_times,
                          const rl::StateEncoder& encoder,
                          const std::vector<std::vector<float>>& observations, Result& r) {
  std::vector<double> generate, build, steps;
  for (const auto& t : frame_times) {
    generate.push_back(t.generate_s);
    build.push_back(t.build_s);
    steps.insert(steps.end(), t.step_s.begin(), t.step_s.end());
  }
  r.layer("trace.generate_s", median(generate));
  r.layer("sim.build_ms", 1e3 * median(build));
  r.layer("sim.step_us", 1e6 * median(steps));
  encoder.flatten(0.0f);
  const double one = median_time_s(3, [&] { encoder.flatten(0.0f); });
  r.layer("rl.observation_us",
          1e6 * median_time_s(reps_for(one, 0.25), [&] { encoder.flatten(0.0f); }));

  nn_probes(*stack.model(), net, batch, expert_items, observations, r);
  rl::DqnAgent agent(moe_dqn(net), stack.agent_seed);
  q_pair_probe(agent, observations, r);
  pretrain_step_probe(agent, observations, rl::PretrainConfig{}.batch_size, r);
}

}  // namespace

// ============================================================== serve_tick

void run_serve_tick(const Options& opt, Result& r) {
  constexpr std::size_t kSessions = 512;
  constexpr std::size_t kHistory = 144;  // the paper's default k
  constexpr std::size_t kChecked = 8;    // sessions mirrored by an own StateEncoder
  const auto net = serve_net(kHistory);
  serve::ServiceConfig config;
  config.history_len = kHistory;

  Tracer tracer(opt.trace);
  Tracer off(false);
  std::vector<sim::StateSample> frames;
  std::unique_ptr<ServeStack> stack;
  std::vector<serve::SessionId> ids;
  std::vector<SessionPlan> plans;
  std::vector<std::size_t> checked;
  std::vector<rl::StateEncoder> mirrors;
  std::vector<FrameTimes> frame_times;

  // Set-up: frames, checkpoint, registry, service and 512 sessions with a
  // full k-frame history. Repeated before the measured window (the last
  // one is kept) and after it; see kSetupBefore.
  std::vector<double> setup_times;
  auto setup = [&](bool keep) {
    stack.reset();
    const double t0 = now_s();
    frame_times.emplace_back();
    frames = record_frames(opt.seed, frame_times.back());
    stack = std::make_unique<ServeStack>(net, opt.seed ^ 0x7e11u, opt.work_dir + "/tick.ckpt",
                                         config);
    util::Rng rng(opt.seed ^ 0x5e55u);
    ids.assign(kSessions, 0);
    plans.assign(kSessions, {});
    for (std::size_t s = 0; s < kSessions; ++s) {
      plans[s] = SessionPlan::draw(rng);
      r.ops.attempt(Op::kOpen);
      Scope span(keep ? tracer : off, "open", s);
      ids[s] = stack->service->open_session();
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      for (std::size_t f = 0; f < kHistory; ++f, ++plans[s].frames_seen) {
        r.ops.attempt(Op::kObserve);
        try {
          stack->service->observe(ids[s], plans[s].frame(frames), plans[s].context());
        } catch (const std::out_of_range&) {
          r.ops.fail(Op::kObserve);
        }
      }
    }
    setup_times.push_back(now_s() - t0);
    if (keep) {
      checked.clear();
      mirrors.clear();
      for (std::size_t i = 0; i < kChecked; ++i) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(0, kSessions - 1));
        checked.push_back(s);
        mirrors.emplace_back(kHistory);
        SessionPlan replay = plans[s];
        replay.frames_seen = 0;
        for (std::size_t f = 0; f < kHistory; ++f, ++replay.frames_seen) {
          mirrors.back().push(replay.frame(frames), replay.context());
        }
      }
    }
  };
  for (int rep = 0; rep < kSetupBefore; ++rep) setup(rep + 1 == kSetupBefore);
  auto& service = *stack->service;

  std::vector<serve::AsyncDecision> pending(kSessions);
  std::uint64_t submitted = 0;
  std::vector<CheckRecord> records;
  // One tick: every session observes its next frame and asks for a
  // decision; then every decision is collected.
  auto tick = [&](Tracer& tr, std::uint64_t tick_no, bool keep) {
    const double start = now_s();
    Scope tick_span(tr, "tick", tick_no);
    for (std::size_t s = 0; s < kSessions; ++s) {
      const auto& frame = plans[s].frame(frames);
      const auto ctx = plans[s].context();
      r.ops.attempt(Op::kObserve);
      try {
        Scope span(tr, "observe", s, tick_span.index());
        service.observe(ids[s], frame, ctx);
      } catch (const std::out_of_range&) {
        r.ops.fail(Op::kObserve);
      }
      r.ops.attempt(Op::kDecide);
      try {
        Scope span(tr, "submit", s, tick_span.index());
        pending[s] = service.decide_async_pooled(ids[s]);
        ++submitted;
      } catch (const std::exception&) {  // backpressure, drain or unknown session
        r.ops.fail(Op::kDecide);
      }
      ++plans[s].frames_seen;
      for (std::size_t i = 0; i < checked.size(); ++i) {
        if (checked[i] == s) mirrors[i].push(frame, ctx);
      }
    }
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (!pending[s].valid()) continue;
      serve::Decision d;
      try {
        d = pending[s].get();
      } catch (const std::exception&) {
        r.ops.fail(Op::kDecide);
        continue;
      }
      if (!keep) continue;
      for (std::size_t i = 0; i < checked.size(); ++i) {
        if (checked[i] == s) records.push_back({mirrors[i].flatten(0.0f), d});
      }
    }
    return now_s() - start;
  };

  // Whole ticks until the window is spent. The tick's wall time is the
  // fleet's decision latency; its process CPU over the fleet is the cost of
  // a decision. Both are medians over the window's ticks.
  struct WindowStats {
    double latency_ms = 0.0;
    double cpu_ms_per_decision = 0.0;
    EngineWindow engine;
  };
  std::uint64_t tick_no = 0;
  auto window = [&](Tracer& tr) {
    WindowStats ws;
    std::vector<double> walls, cpus;
    ws.engine.before = settled_report(service, submitted);
    const double t0 = now_s();
    do {
      const double cpu0 = process_cpu_s();
      walls.push_back(tick(tr, tick_no++, true));
      cpus.push_back(process_cpu_s() - cpu0);
    } while (now_s() - t0 < opt.seconds);
    ws.engine.wall_s = now_s() - t0;
    ws.engine.after = settled_report(service, submitted);
    ws.latency_ms = 1e3 * median(walls);
    ws.cpu_ms_per_decision = 1e3 * median(cpus) / static_cast<double>(kSessions);
    std::printf("window: %zu ticks, %.1f s, tick ms:", walls.size(), ws.engine.wall_s);
    for (double v : walls) std::printf(" %.1f", 1e3 * v);
    std::printf("\nlatency %.3f ms per tick (%.2f decisions/s), cpu %.4f ms/decision, "
                "engine busy %.3f, mean batch %.1f\n",
                ws.latency_ms, 1e3 * kSessions / ws.latency_ms, ws.cpu_ms_per_decision,
                ws.engine.busy_share(), ws.engine.mean_batch());
    return ws;
  };

  tick(off, tick_no++, false);  // warm-up: pools, caches, token pool
  const WindowStats plain = window(off);
  std::vector<std::vector<float>> sample_obs;
  if (opt.trace) {
    const WindowStats traced = window(tracer);
    r.layer("trace.overhead_pct", 100.0 * (traced.latency_ms / plain.latency_ms - 1.0));
    report_serve_layers(tracer, traced.engine, nullptr, r);
    for (const auto& rec : records) sample_obs.push_back(rec.observation);
  }

  close_all(service, ids, tracer, r);
  if (opt.trace) report_session_calls(tracer, r);
  service.drain_and_stop();
  const auto model = stack->model();
  verify_served(*model, stack->version, records, r);
  const auto final_report = service.report();
  r.check(final_report.engine.rejected == 0, "no backpressure rejections");

  if (opt.trace) {
    report_shared_layers(*stack, net, config.engine.max_batch,
                         2 * config.engine.max_batch / net.moe_experts, frame_times,
                         mirrors.front(), sample_obs, r);
    tracer.print_table();
    tracer.write_csv(opt.spans_path);
  }
  for (int rep = 0; rep < kSetupAfter; ++rep) setup(false);
  stack.reset();
  r.e2e("latency_ms", plain.latency_ms);
  r.e2e("cpu_ms_per_decision", plain.cpu_ms_per_decision);
  r.e2e("setup_s", report_setup(setup_times));
  r.e2e("peak_rss_mb", peak_rss_mb());
}

// ============================================================= serve_paced

namespace {

/// Decisions in flight, handed from the generator to the collector thread,
/// which waits on each in order and stamps its completion time.
struct InFlight {
  serve::AsyncDecision handle;
  double due = 0.0;
  int check = -1;  ///< index into the check records, or -1
};

class Collector {
 public:
  Collector() : thread_([this] { loop(); }) {}
  ~Collector() { stop(); }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void push(InFlight item) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(item));
    ++pushed_;
    cv_.notify_one();
  }
  /// Wait until every pushed decision is collected; returns the time the
  /// last one completed.
  double wait_idle() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [&] { return collected_ == pushed_; });
    return last_completion_;
  }
  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      cv_.notify_one();
    }
    if (thread_.joinable()) thread_.join();
  }
  /// Results since the last take (call only while idle).
  std::vector<double> take_latencies() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(latencies_, {});
  }

  std::vector<std::pair<int, serve::Decision>> take_checked() {
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(checked_, {});
  }
  std::uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }
  std::uint64_t served() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return served_;
  }

 private:
  void loop() {
    for (;;) {
      InFlight item;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      bool ok = true;
      serve::Decision d;
      try {
        d = item.handle.get();
      } catch (const std::exception&) {
        ok = false;
      }
      const double done = now_s();
      std::lock_guard<std::mutex> lock(mutex_);
      if (ok) {
        ++served_;
        latencies_.push_back(done - item.due);
        if (item.check >= 0) checked_.emplace_back(item.check, d);
      } else {
        ++failed_;
      }
      last_completion_ = done;
      ++collected_;
      idle_cv_.notify_all();
    }
  }

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<InFlight> queue_;
  bool stop_ = false;
  std::uint64_t pushed_ = 0;
  std::uint64_t collected_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t failed_ = 0;
  double last_completion_ = 0.0;
  std::vector<double> latencies_;
  std::vector<std::pair<int, serve::Decision>> checked_;
  std::thread thread_;  // last: started after every member it uses
};

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

}  // namespace

void run_serve_paced(const Options& opt, Result& r) {
  constexpr std::size_t kSessions = 1024;
  constexpr std::size_t kHistory = 24;
  constexpr double kRate = 300.0;         // offered decisions per second
  constexpr double kChurn = 1.0 / 64.0;   // share of arrivals that churn their session
  constexpr double kTtl = 6.0;            // > the ~3.4 s round-robin revisit interval
  constexpr std::size_t kChecked = 64;    // slots mirrored by an own StateEncoder
  const auto net = serve_net(kHistory);

  Tracer tracer(opt.trace);
  Tracer off(false);
  std::vector<sim::StateSample> frames;
  std::unique_ptr<ServeStack> stack;
  serve::ServiceConfig config;
  std::vector<serve::SessionId> ids(kSessions);
  std::vector<SessionPlan> plans(kSessions);
  std::vector<rl::StateEncoder> mirrors;
  std::vector<int> mirror_of(kSessions, -1);  // slot -> its mirror, or -1
  std::vector<FrameTimes> frame_times;
  {
    std::vector<std::size_t> order(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) order[s] = s;
    util::Rng pick(opt.seed ^ 0xc4ecu);
    pick.shuffle(order);
    for (std::size_t i = 0; i < kChecked; ++i) mirror_of[order[i]] = static_cast<int>(i);
  }
  util::Rng rng(0);

  // What the generator did, to compare with the journal after a restart.
  std::uint64_t opens = 0, closes = 0, abandoned = 0, frames_sent = 0;

  auto observe = [&](std::size_t slot, Tracer& tr, int parent, std::uint64_t id) {
    const auto& frame = plans[slot].frame(frames);
    const auto ctx = plans[slot].context();
    r.ops.attempt(Op::kObserve);
    try {
      Scope span(tr, "observe", id, parent);
      stack->service->observe(ids[slot], frame, ctx);
      ++frames_sent;
    } catch (const std::out_of_range&) {
      r.ops.fail(Op::kObserve);
    }
    if (mirror_of[slot] >= 0) mirrors[static_cast<std::size_t>(mirror_of[slot])].push(frame, ctx);
    ++plans[slot].frames_seen;
  };
  // A fresh session in `slot`, fed a full k-frame history.
  auto open_slot = [&](std::size_t slot, Tracer& tr, int parent, std::uint64_t id) {
    r.ops.attempt(Op::kOpen);
    {
      Scope span(tr, "open", id, parent);
      ids[slot] = stack->service->open_session();
    }
    ++opens;
    plans[slot] = SessionPlan::draw(rng);
    if (mirror_of[slot] >= 0) mirrors[static_cast<std::size_t>(mirror_of[slot])].reset();
    for (std::size_t f = 0; f < kHistory; ++f) observe(slot, tr, parent, id);
  };

  // Set-up: frames, checkpoint, registry, a journaling service and 1024
  // sessions with a full k-frame history. Repeated before the measured
  // window (the last one is kept) and after it; see kSetupBefore.
  std::vector<double> setup_times;
  int setup_no = 0;
  auto setup = [&] {
    stack.reset();
    const double t0 = now_s();
    frame_times.emplace_back();
    frames = record_frames(opt.seed, frame_times.back());
    config = serve::ServiceConfig{};
    config.history_len = kHistory;
    config.session_ttl_seconds = kTtl;
    config.slo.enabled = true;
    config.slo.dump_on_fire = false;  // keep flight-recorder bundles out of the checkout
    config.wal.dir = opt.work_dir + "/wal" + std::to_string(setup_no++);
    config.wal.wal.sync = util::wal::SyncLevel::kNone;
    stack = std::make_unique<ServeStack>(net, opt.seed ^ 0x9ace5u,
                                         opt.work_dir + "/paced.ckpt", config);
    rng = util::Rng(opt.seed ^ 0x5e55u);
    mirrors.assign(kChecked, rl::StateEncoder(kHistory));
    opens = closes = abandoned = frames_sent = 0;
    for (std::size_t s = 0; s < kSessions; ++s) open_slot(s, off, -1, s);
    setup_times.push_back(now_s() - t0);
  };
  for (int rep = 0; rep < kSetupBefore; ++rep) setup();
  auto& service = *stack->service;

  Collector collector;
  std::vector<CheckRecord> records;
  util::Rng arrivals(opt.seed ^ 0xa331u);
  util::Rng churn(opt.seed ^ 0xc4u);
  std::uint64_t arrival_no = 0;
  std::uint64_t submitted = 0;

  // latency_ms is the lower quartile of due-to-completion times, not the
  // median: on a shared 4-vCPU host, time spent waiting for a CPU lands in
  // the hand-offs of every decision, and one competing busy process moved
  // the median by 20-75 % but the lower quartile by 19-35 % on the same
  // seeds. The median and p99 are printed and reported as workload-only
  // figures.
  struct WindowStats {
    double p25_ms = 0.0;
    double p50_ms = 0.0;
    double cpu_ms_per_decision = 0.0;
    double late_p50_ms = 0.0;
    std::vector<double> latencies;
    EngineWindow engine;
  };
  // Open loop: arrivals are due on a seeded Poisson schedule and sent when
  // due, whether or not earlier decisions have completed.
  auto window = [&](Tracer& tr) {
    WindowStats ws;
    std::vector<double> late;
    ws.engine.before = settled_report(service, submitted);
    const std::uint64_t served0 = collector.served();
    const double cpu0 = process_cpu_s();
    const auto clock0 = std::chrono::steady_clock::now();
    const double t0 = now_s();
    double due_offset = 0.0;
    for (;;) {
      due_offset += arrivals.exponential(kRate);
      if (due_offset >= opt.seconds) break;
      std::this_thread::sleep_until(clock0 + std::chrono::duration<double>(due_offset));
      const double due = t0 + due_offset;
      late.push_back(now_s() - due);
      const std::uint64_t id = arrival_no++;
      const std::size_t slot = id % kSessions;
      Scope arrival(tr, "arrival", id);
      if (churn.uniform() < kChurn) {
        Scope span(tr, "churn", id, arrival.index());
        if (churn.uniform() < 0.5) {
          r.ops.attempt(Op::kClose);
          try {
            Scope close_span(tr, "close", id, span.index());
            service.close_session(ids[slot]);
            ++closes;
          } catch (const std::out_of_range&) {
            r.ops.fail(Op::kClose);
          }
        } else {
          ++abandoned;  // left for the TTL sweeper
        }
        open_slot(slot, tr, span.index(), id);
      }
      observe(slot, tr, arrival.index(), id);
      r.ops.attempt(Op::kDecide);
      InFlight item;
      item.due = due;
      try {
        Scope span(tr, "submit", id, arrival.index());
        item.handle = service.decide_async_pooled(ids[slot]);
        ++submitted;
      } catch (const std::exception&) {
        r.ops.fail(Op::kDecide);
        continue;
      }
      if (mirror_of[slot] >= 0) {
        item.check = static_cast<int>(records.size());
        records.push_back({mirrors[static_cast<std::size_t>(mirror_of[slot])].flatten(0.0f), {}});
      }
      collector.push(std::move(item));
    }
    const double last = collector.wait_idle();
    const double cpu1 = process_cpu_s();
    ws.engine.wall_s = last - t0;
    ws.engine.after = settled_report(service, submitted);
    ws.latencies = collector.take_latencies();
    for (auto& [index, d] : collector.take_checked()) {
      records[static_cast<std::size_t>(index)].served = d;
    }
    const double decisions = static_cast<double>(collector.served() - served0);
    ws.p25_ms = 1e3 * util::percentile(ws.latencies, 25.0);
    ws.p50_ms = 1e3 * median(ws.latencies);
    ws.cpu_ms_per_decision = 1e3 * (cpu1 - cpu0) / std::max(1.0, decisions);
    ws.late_p50_ms = 1e3 * median(late);
    std::printf("window: %.0f decisions in %.1f s, p25 %.4f ms, p50 %.4f ms, p99 %.4f ms, "
                "cpu %.4f ms/decision, generator late p50 %.4f ms, mean batch %.2f\n",
                decisions, ws.engine.wall_s, ws.p25_ms, ws.p50_ms,
                1e3 * util::percentile(ws.latencies, 99.0),
                ws.cpu_ms_per_decision, ws.late_p50_ms, ws.engine.mean_batch());
    return ws;
  };

  const WindowStats plain = window(off);
  if (opt.trace) {
    const WindowStats traced = window(tracer);
    r.layer("trace.overhead_pct", 100.0 * (traced.p25_ms / plain.p25_ms - 1.0));
    report_serve_layers(tracer, traced.engine, &traced.latencies, r);
    report_session_calls(tracer, r);
    r.detail("gen.late_ms", traced.late_p50_ms, "ms");
  }

  // Wind down: close every live session, let the sweeper reap the
  // abandoned ones, drain, then restart on the journal.
  for (std::size_t s = 0; s < kSessions; ++s) {
    r.ops.attempt(Op::kClose);
    try {
      service.close_session(ids[s]);
      ++closes;
    } catch (const std::out_of_range&) {
      r.ops.fail(Op::kClose);
    }
  }
  const double reap_deadline = now_s() + kTtl + 10.0;
  while (service.report().evictions < abandoned && now_s() < reap_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  collector.stop();
  r.ops.fail(Op::kDecide, collector.failed());
  service.drain_and_stop();
  const auto final_report = service.report();
  r.check(final_report.evictions == abandoned,
          "TTL reaped every abandoned session (" + std::to_string(final_report.evictions) + " of " +
              std::to_string(abandoned) + ")");
  r.check(final_report.engine.rejected == 0, "no backpressure rejections");
  r.check(!service.wal_failed(), "journal never failed");
  const std::uint64_t wal_bytes = directory_bytes(config.wal.dir);
  const std::uint64_t decisions = collector.served();

  const auto model = stack->model();
  verify_served(*model, stack->version, records, r);
  std::vector<std::vector<float>> sample_obs;
  for (std::size_t i = 0; i < records.size() && i < 64; ++i) {
    sample_obs.push_back(records[i].observation);
  }

  stack->service.reset();
  {
    serve::ProvisioningService restarted(*stack->registry, stack->key, config);
    const auto& info = restarted.wal_restore_info();
    r.check(info.replayed && info.sessions_opened == opens && info.frames == frames_sent &&
                info.decisions == decisions && info.closes == closes &&
                info.evictions == abandoned && info.sessions == 0,
            "journal restart counts opens/frames/decisions/closes/evictions " +
                std::to_string(info.sessions_opened) + "/" + std::to_string(info.frames) + "/" +
                std::to_string(info.decisions) + "/" + std::to_string(info.closes) + "/" +
                std::to_string(info.evictions) + " == generator " + std::to_string(opens) + "/" +
                std::to_string(frames_sent) + "/" + std::to_string(decisions) + "/" +
                std::to_string(closes) + "/" + std::to_string(abandoned));
    if (opt.trace) {
      r.detail("wal.records", static_cast<double>(info.records), "count");
      const auto per = static_cast<double>(std::max<std::uint64_t>(1, decisions));
      r.detail("wal.bytes_per_decision", static_cast<double>(wal_bytes) / per, "B");
    }
    restarted.drain_and_stop();
  }

  if (opt.trace) {
    report_shared_layers(*stack, net, 1, 2, frame_times, mirrors.front(), sample_obs, r);
    tracer.print_table();
    tracer.write_csv(opt.spans_path);
  }
  for (int rep = 0; rep < kSetupAfter; ++rep) setup();
  stack.reset();
  r.e2e("latency_ms", plain.p25_ms);
  r.e2e("cpu_ms_per_decision", plain.cpu_ms_per_decision);
  r.e2e("setup_s", report_setup(setup_times));
  r.e2e("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
