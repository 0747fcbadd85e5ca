// End-to-end tour of the online provisioning service (src/serve):
//
//   1. train a compact Mirage agent (MoE + DQN, Top-1 routing) on a
//      synthetic cluster trace, exactly like the offline pipeline;
//   2. save it as a registry checkpoint and boot a ModelRegistry +
//      ProvisioningService on top of it;
//   3. drive hundreds of concurrent provisioning sessions with live
//      simulator state — every decision flows through the batched
//      inference engine;
//   4. hot-reload a new checkpoint version mid-traffic, then drain
//      gracefully and print the serving metrics.
//
//   ./serve_demo [cluster=v100] [sessions=200] [rounds=12] [seed=42]
//               [shards=0] [ttl=0] [max_queue=8192] [slo=1]
//               [force_breach=0] [flight_dir=flight_demo] [wal_dir=]
//
// shards=0 picks hardware_concurrency session shards; ttl>0 turns on idle
// session eviction (lazy on access + background sweep); max_queue bounds
// the engine queue (overflow is rejected with BackpressureRejected).
//
// wal_dir=<dir> appends a crash-recovery act (step 5): a forked child
// serves a few journaled sessions at sync=on_commit and kill -9s itself
// mid-traffic; the parent warm-restarts a service over the surviving
// journal, prints what the replay recovered, and proves the restored
// session rings are bit-exact by comparing post-restart decisions against
// an uninterrupted control service fed the same stream (non-zero exit on
// any mismatch — the CI smoke gate).
//
// slo=1 (default) turns on the serving SLOs (p99 latency + reject-rate
// burn alerts) and prints health_text() after the drain. force_breach=1
// swaps in an unmeetable latency target so the alert must transition to
// firing mid-traffic and auto-dump a flight-recorder bundle under
// flight_dir; the demo then schema-validates the bundle and exits
// non-zero if the breach did not fire or the bundle is invalid (the CI
// smoke gate).
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <set>

#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serve/service.hpp"
#include "sim/simulator.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  using namespace mirage;
  const auto cli = util::Config::from_args(argc, argv);
  const auto preset = trace::preset_by_name(cli.get_string("cluster", "v100"));
  const auto sessions = static_cast<std::size_t>(cli.get_int("sessions", 200));
  const auto rounds = static_cast<std::size_t>(cli.get_int("rounds", 12));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  // ---- 1. train ----------------------------------------------------------
  std::printf("=== train: compact MoE+DQN agent on %s ===\n", preset.name.c_str());
  auto cfg = core::PipelineConfig::compact(preset, /*job_nodes=*/1, seed);
  cfg.net.moe_top1 = true;  // Top-1 routing: the serving-efficient gate mode
  core::MiragePipeline pipeline(cfg);
  pipeline.prepare();
  pipeline.collect_offline();
  pipeline.train(core::Method::kMoeDqn);

  // ---- 2. register -------------------------------------------------------
  const auto model_dir = std::filesystem::temp_directory_path() / "mirage_serve_demo";
  std::filesystem::create_directories(model_dir);
  const std::string ckpt =
      (model_dir / (preset.name + "__moe_dqn.ckpt")).string();
  auto* agent = const_cast<rl::DqnAgent*>(pipeline.dqn_agent(core::Method::kMoeDqn));
  if (!core::save_agent(*agent, ckpt)) {
    std::fprintf(stderr, "failed to save checkpoint %s\n", ckpt.c_str());
    return 1;
  }

  serve::RegistryConfig reg_cfg;
  reg_cfg.net_defaults = cfg.net;
  serve::ModelRegistry registry(reg_cfg);
  std::vector<serve::ModelRegistry::LoadResult> loads;
  registry.scan_directory(model_dir.string(), &loads);
  for (const auto& l : loads) {
    std::printf("registry: %s -> %s (v%llu)\n", l.key.to_string().c_str(),
                l.ok ? "loaded" : l.error.c_str(),
                static_cast<unsigned long long>(l.version));
  }
  const serve::ModelKey key{preset.name, "dqn", "moe"};
  if (!registry.lookup(key)) {
    std::fprintf(stderr, "model not in registry\n");
    return 1;
  }

  // ---- 3. serve ----------------------------------------------------------
  serve::ServiceConfig svc_cfg;
  svc_cfg.history_len = cfg.net.history_len;
  svc_cfg.shards = static_cast<std::size_t>(cli.get_int("shards", 0));
  svc_cfg.session_ttl_seconds = cli.get_double("ttl", 0.0);
  svc_cfg.engine.max_batch = 64;
  svc_cfg.engine.max_queue = static_cast<std::size_t>(cli.get_int("max_queue", 8192));
  const bool force_breach = cli.get_int("force_breach", 0) != 0;
  const std::string flight_dir = cli.get_string("flight_dir", "flight_demo");
  if (cli.get_int("slo", 1) != 0) {
    svc_cfg.slo.enabled = true;
    svc_cfg.sweep_interval_seconds = 0.02;
    if (force_breach) {
      // Unmeetable latency objective: every decision is "bad", both burn
      // windows saturate, the alert must fire mid-traffic and the fire
      // hook dumps a flight-recorder bundle under flight_dir.
      svc_cfg.slo.latency_target_seconds = 1e-9;
      svc_cfg.slo.latency_quantile = 50.0;
      svc_cfg.slo.short_window_seconds = 0.1;
      svc_cfg.slo.long_window_seconds = 0.3;
      svc_cfg.slo.resolve_seconds = 60.0;
      obs::FlightRecorderConfig frc;
      frc.directory = flight_dir;
      obs::flight_recorder().configure(frc);
    }
  }
  serve::ProvisioningService service(registry, key, svc_cfg);
  service.start();

  // Live cluster feed: replay the pipeline's workload into a simulator and
  // let every session watch the queue evolve from the validation range on.
  sim::Simulator sim(preset.node_count);
  sim.load_workload(pipeline.workload());
  sim.run_until(pipeline.train_end());

  std::vector<serve::SessionId> ids;
  ids.reserve(sessions);
  for (std::size_t s = 0; s < sessions; ++s) ids.push_back(service.open_session());
  std::printf("\n=== serve: %zu concurrent sessions x %zu decision rounds ===\n",
              sessions, rounds);

  std::size_t submits = 0;
  std::set<std::uint64_t> versions_seen;
  for (std::size_t r = 0; r < rounds; ++r) {
    sim.step(cfg.episode.decision_interval);
    const auto sample = sim.sample();

    // Each session provisions its own successor job (varied shape/age).
    std::vector<serve::AsyncDecision> pending;
    pending.reserve(sessions);
    for (std::size_t s = 0; s < sessions; ++s) {
      rl::JobPairContext ctx;
      ctx.pred_nodes = 1 + static_cast<std::int32_t>(s % 4);
      ctx.pred_elapsed = static_cast<util::SimTime>((s * 3 + r) % 40) * util::kHour;
      ctx.succ_nodes = ctx.pred_nodes;
      service.observe(ids[s], sample, ctx);
      pending.push_back(service.decide_async_pooled(ids[s]));
    }
    std::size_t round_submits = 0;
    for (auto& p : pending) {
      const auto d = p.get();
      round_submits += (d.action == 1);
      versions_seen.insert(d.model_version);
    }
    submits += round_submits;
    std::printf("round %2zu: queue=%3zu running=%3zu free=%2d  submit %3zu/%zu\n", r,
                sample.queue_length(), sample.running_count(), sample.free_nodes,
                round_submits, sessions);

    // ---- 4a. hot reload mid-traffic -----------------------------------
    if (r == rounds / 2) {
      if (!core::save_agent(*agent, ckpt)) return 1;
      const auto res = registry.load_file(ckpt, preset.name);
      std::printf("  -> hot reload: %s now v%llu (in-flight requests kept their snapshot)\n",
                  key.to_string().c_str(), static_cast<unsigned long long>(res.version));
    }
  }

  // ---- 4b. graceful drain + metrics --------------------------------------
  service.drain_and_stop();
  const auto report = service.report();
  std::printf("\n=== metrics ===\n");
  std::printf("sessions            %zu open / %llu total across %zu shards\n",
              report.open_sessions, static_cast<unsigned long long>(report.total_sessions),
              report.shards);
  std::printf("admission           %llu evicted by TTL, %llu rejected by backpressure\n",
              static_cast<unsigned long long>(report.evictions),
              static_cast<unsigned long long>(report.engine.rejected));
  std::printf("decisions           %llu (%.1f%% submit), %llu model versions served\n",
              static_cast<unsigned long long>(report.decisions),
              report.decisions ? 100.0 * static_cast<double>(submits) /
                                     static_cast<double>(report.decisions)
                               : 0.0,
              static_cast<unsigned long long>(versions_seen.size()));
  std::printf("throughput          %.0f decisions/s sustained, %llu ticks, mean batch %.1f\n",
              report.decisions_per_second,
              static_cast<unsigned long long>(report.engine.ticks), report.engine.mean_batch);
  const obs::Histogram& latency = serve::decision_latency_histogram();
  std::printf("request latency     p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  p99.9 %.2f ms  "
              "(%llu decisions)\n",
              latency.percentile(50.0) * 1e3, latency.percentile(95.0) * 1e3,
              latency.percentile(99.0) * 1e3, latency.percentile(99.9) * 1e3,
              static_cast<unsigned long long>(latency.count()));

  if (svc_cfg.slo.enabled) {
    std::printf("\n=== health ===\n%s", service.health_text().c_str());
  }

  // ---- 4c. forced-breach smoke gate (CI) ---------------------------------
  if (force_breach) {
    std::uint64_t fires = 0;
    for (const auto& st : service.slo_statuses()) fires += st.fires;
    std::string newest;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(flight_dir, ec)) {
      const auto name = entry.path().filename().string();
      if (entry.is_directory() && name.rfind("bundle_", 0) == 0 && name > newest)
        newest = name;
    }
    if (fires == 0) {
      std::fprintf(stderr, "force_breach: SLO never fired (fires=0)\n");
      return 2;
    }
    if (newest.empty()) {
      std::fprintf(stderr, "force_breach: no flight bundle under %s\n", flight_dir.c_str());
      return 2;
    }
    std::string err;
    const auto bundle = (std::filesystem::path(flight_dir) / newest).string();
    if (!obs::FlightRecorder::validate_bundle(bundle, &err)) {
      std::fprintf(stderr, "force_breach: invalid bundle %s: %s\n", bundle.c_str(),
                   err.c_str());
      return 2;
    }
    std::printf("\nforce_breach: %llu SLO fire(s); valid flight bundle at %s\n",
                static_cast<unsigned long long>(fires), bundle.c_str());
  }

  std::printf("\ngraceful drain complete; all in-flight decisions answered.\n");

  // ---- 5. crash-recovery act (wal_dir=<dir>) ------------------------------
  // A forked child serves journaled sessions and dies by kill -9 after its
  // decisions committed; the parent restarts over the surviving journal
  // and must serve the exact decisions an uninterrupted service would.
  const std::string wal_dir = cli.get_string("wal_dir", "");
  if (!wal_dir.empty()) {
    constexpr std::size_t kDurSessions = 4;
    constexpr std::size_t kDurFrames = 6;
    std::printf("\n=== durability: kill -9 mid-traffic, warm restart from %s ===\n",
                wal_dir.c_str());
    std::filesystem::remove_all(wal_dir);

    // Pre-compute the deterministic feed BEFORE forking so the child, the
    // control and the survivor all see identical streams.
    std::vector<sim::StateSample> feed;
    for (std::size_t f = 0; f <= kDurFrames; ++f) {
      sim.step(cfg.episode.decision_interval);
      feed.push_back(sim.sample());
    }
    const auto dur_ctx = [](std::size_t s) {
      rl::JobPairContext c;
      c.pred_nodes = 1 + static_cast<std::int32_t>(s % 4);
      c.pred_elapsed = static_cast<util::SimTime>(s * 5) * util::kHour;
      c.succ_nodes = c.pred_nodes;
      return c;
    };
    serve::ServiceConfig dur_cfg = svc_cfg;
    dur_cfg.slo.enabled = false;
    dur_cfg.wal.dir = wal_dir;
    dur_cfg.wal.wal.sync = util::wal::SyncLevel::kOnCommit;

    const pid_t pid = fork();
    if (pid == 0) {
      // Child: journal a little traffic, then die without any shutdown.
      serve::ProvisioningService victim(registry, key, dur_cfg);
      victim.start();
      std::vector<serve::SessionId> vids;
      for (std::size_t s = 0; s < kDurSessions; ++s) vids.push_back(victim.open_session());
      for (std::size_t f = 0; f < kDurFrames; ++f) {
        for (std::size_t s = 0; s < kDurSessions; ++s) {
          victim.observe(vids[s], feed[f], dur_ctx(s));
        }
      }
      for (std::size_t s = 0; s < kDurSessions; ++s) (void)victim.decide(vids[s]);
      std::raise(SIGKILL);  // decide() returned => those records are fsynced
      _exit(9);
    }
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    if (!WIFSIGNALED(wstatus) || WTERMSIG(wstatus) != SIGKILL) {
      std::fprintf(stderr, "durability: child did not die by SIGKILL (status %d)\n", wstatus);
      return 2;
    }
    std::printf("child served %zu sessions x %zu frames + 1 decision each, then kill -9\n",
                kDurSessions, kDurFrames);

    // Control: the same stream without interruption (and no journal).
    serve::ServiceConfig ctrl_cfg = dur_cfg;
    ctrl_cfg.wal.dir.clear();
    serve::ProvisioningService control(registry, key, ctrl_cfg);
    control.start();
    std::vector<serve::SessionId> cids;
    for (std::size_t s = 0; s < kDurSessions; ++s) cids.push_back(control.open_session());
    for (std::size_t f = 0; f < kDurFrames; ++f) {
      for (std::size_t s = 0; s < kDurSessions; ++s) {
        control.observe(cids[s], feed[f], dur_ctx(s));
      }
    }
    for (std::size_t s = 0; s < kDurSessions; ++s) (void)control.decide(cids[s]);

    // Survivor: warm restart over the journal the dead child left behind.
    serve::ProvisioningService survivor(registry, key, dur_cfg);
    const auto& restore = survivor.wal_restore_info();
    std::printf(
        "warm restart: replayed %llu records -> %zu live sessions, %llu frames, "
        "%llu decisions%s\n",
        static_cast<unsigned long long>(restore.records), restore.sessions,
        static_cast<unsigned long long>(restore.frames),
        static_cast<unsigned long long>(restore.decisions),
        restore.torn_tail ? " (torn tail truncated)" : "");
    if (restore.sessions != kDurSessions) {
      std::fprintf(stderr, "durability: expected %zu restored sessions, got %zu\n",
                   kDurSessions, restore.sessions);
      return 2;
    }
    survivor.start();

    // One more frame + decision on every session pair: the restored rings
    // must produce bitwise-identical decisions to the uninterrupted run.
    std::size_t matched = 0;
    for (std::size_t s = 0; s < kDurSessions; ++s) {
      survivor.observe(static_cast<serve::SessionId>(s + 1), feed[kDurFrames], dur_ctx(s));
      control.observe(cids[s], feed[kDurFrames], dur_ctx(s));
      const auto mine = survivor.decide(static_cast<serve::SessionId>(s + 1));
      const auto theirs = control.decide(cids[s]);
      const bool same = mine.action == theirs.action &&
                        mine.score_submit == theirs.score_submit &&
                        mine.score_wait == theirs.score_wait;
      matched += same;
      if (!same) {
        std::fprintf(stderr,
                     "durability: session %zu diverged after restart "
                     "(action %d vs %d, submit %.6f vs %.6f)\n",
                     s, mine.action, theirs.action, mine.score_submit, theirs.score_submit);
      }
    }
    survivor.drain_and_stop();
    control.drain_and_stop();
    if (matched != kDurSessions) return 2;
    std::printf("post-restart decisions bitwise-identical to the uninterrupted control "
                "(%zu/%zu sessions)\n",
                matched, kDurSessions);
  }
  return 0;
}
