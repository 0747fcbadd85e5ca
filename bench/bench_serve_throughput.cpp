// Serving-throughput bench behind the serve subsystem's headline claim:
// batched serving beats the status-quo B=1 loop by >=4x decisions/sec on
// the same checkpoint.
//
// The B=1 baseline is the status quo the target was set against: one
// decision at a time through the DENSE forward over ALL MoE experts
// (DualHeadModel::forward_q on the Q-pair's two action rows, or
// forward_policy on the policy row). The batched path is
// ServableModel::infer: requests coalesce into one [B, k*(m+1)] tensor
// and, for Top-1 MoE checkpoints, the gate routes rows into per-expert
// sub-batches so each expert runs once over only its rows — the
// sparse-routing saving the paper left on the table, which only stays
// GEMM-friendly when serving is batched.
//
// act_greedy itself now routes its B=1 rows through Top-1 as well, so the
// bench also times that loop and splits the speedup into its two parts:
// routing_gain (Top-1 B=1 over dense B=1) and batching_gain (batched
// over Top-1 B=1, same routing on both sides).
//
// Measurements on the same checkpoint (loaded through the real
// ModelRegistry path):
//   1. sequential B=1 serving: dense (status quo) and Top-1 (act_greedy);
//   2. direct batched inference at several batch sizes;
//   3. end-to-end engine serving (client threads -> coalescing queue ->
//      batched tick), with p50/p95/p99 request latency.
//
//   ./bench_serve_throughput [n=4096] [batches=16,64,256] [clients=16]
//                            [k=24] [d_model=32] [experts=8] [top1=true]
//                            [kind=dqn]
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "obs/metrics.hpp"
#include "rl/replay_buffer.hpp"
#include "rl/state_encoder.hpp"
#include "serve/inference_engine.hpp"
#include "serve/model_registry.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"
#include "util/time_utils.hpp"

using namespace mirage;

namespace {

std::vector<std::size_t> parse_batches(const std::string& arg) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= arg.size()) {
    auto comma = arg.find(',', pos);
    if (comma == std::string::npos) comma = arg.size();
    if (comma > pos) {
      const auto b = static_cast<std::size_t>(std::stoul(arg.substr(pos, comma - pos)));
      if (b > 0) out.push_back(b);  // B=0 would make the chunk loop spin forever
    }
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = util::Config::from_args(argc, argv);
  const auto n = static_cast<std::size_t>(cli.get_int("n", 4096));
  const auto batches = parse_batches(cli.get_string("batches", "16,64,256"));
  const auto clients = static_cast<std::size_t>(cli.get_int("clients", 16));
  const std::string kind = cli.get_string("kind", "dqn");

  nn::FoundationConfig net;
  net.history_len = static_cast<std::size_t>(cli.get_int("k", 24));
  net.state_dim = rl::kFrameDim;
  net.d_model = static_cast<std::size_t>(cli.get_int("d_model", 32));
  net.moe_experts = static_cast<std::size_t>(cli.get_int("experts", 8));
  net.moe_top1 = cli.get_bool("top1", true);  ///< Top-1 routing is the serving-efficient mode

  // A freshly initialized agent: forward cost is independent of training,
  // and the checkpoint round-trip exercises the production load path.
  const auto dir = std::filesystem::temp_directory_path() / "mirage_bench_serve";
  std::filesystem::create_directories(dir);
  const std::string ckpt = (dir / ("bench__" + kind + ".ckpt")).string();
  if (kind == "pg") {
    rl::PgConfig cfg;
    cfg.foundation = nn::FoundationType::kMoE;
    cfg.net = net;
    rl::PgAgent agent(cfg, 7);
    if (!core::save_agent(agent, ckpt)) return 1;
  } else {
    rl::DqnConfig cfg;
    cfg.foundation = nn::FoundationType::kMoE;
    cfg.net = net;
    rl::DqnAgent agent(cfg, 7);
    if (!core::save_agent(agent, ckpt)) return 1;
  }

  serve::RegistryConfig reg_cfg;
  reg_cfg.net_defaults = net;
  serve::ModelRegistry registry(reg_cfg);
  const auto load = registry.load_file(ckpt, "bench");
  if (!load.ok) {
    std::fprintf(stderr, "registry load failed: %s\n", load.error.c_str());
    return 1;
  }
  const auto model = registry.lookup(load.key);
  std::printf("model %s  k=%zu state_dim=%zu d_model=%zu experts=%zu  (%zu decisions)\n\n",
              load.key.to_string().c_str(), net.history_len, net.state_dim, net.d_model,
              net.moe_experts, n);

  util::Rng rng(123);
  std::vector<std::vector<float>> observations(n);
  for (auto& obs : observations) {
    obs.resize(model->observation_dim());
    for (auto& v : obs) v = static_cast<float>(rng.normal());
  }

  // Warm up allocators and caches.
  model->infer({observations[0], observations[1]});

  // ---- 1. sequential B=1: dense (status quo) and Top-1 (act_greedy) -------
  // Reload the same checkpoint into plain agents: act_greedy is the
  // serving path the offline pipeline (DqnProvisioner -> act_greedy) uses
  // today, and the agents' models run the dense forward.
  rl::DqnConfig base_cfg;
  base_cfg.foundation = nn::FoundationType::kMoE;
  base_cfg.net = net;
  rl::DqnAgent baseline(base_cfg, 1);
  rl::PgConfig base_pg_cfg;
  base_pg_cfg.foundation = nn::FoundationType::kMoE;
  base_pg_cfg.net = net;
  rl::PgAgent baseline_pg(base_pg_cfg, 1);
  if (kind == "pg" ? !core::load_agent(baseline_pg, ckpt) : !core::load_agent(baseline, ckpt)) {
    std::fprintf(stderr, "baseline agent reload failed\n");
    return 1;
  }

  // The rows one decision runs, as act_greedy builds them: the Q-pair's
  // no-submit (-1) and submit (+1) action ordinals, or the policy's one
  // row with the action channel zeroed.
  nn::DualHeadModel& dense_model = kind == "pg" ? baseline_pg.model() : baseline.model();
  const auto dense_decision = [&](std::vector<float> obs) {
    if (kind == "pg") {
      rl::set_action_channel(obs, net.history_len, 0.0f);
      return dense_model.forward_policy(nn::Tensor::row_vector(obs), false).at(0, 1) > 0.5f ? 1
                                                                                            : 0;
    }
    nn::Tensor x(2, obs.size());
    rl::set_action_channel(obs, net.history_len, -1.0f);
    std::copy(obs.begin(), obs.end(), x.row(0));
    rl::set_action_channel(obs, net.history_len, 1.0f);
    std::copy(obs.begin(), obs.end(), x.row(1));
    const nn::Tensor q = dense_model.forward_q(x, false);
    return q.at(1, 0) > q.at(0, 0) ? 1 : 0;
  };

  double t0 = util::wall_seconds();
  std::size_t dense_submits = 0;
  for (std::size_t i = 0; i < n; ++i) dense_submits += dense_decision(observations[i]);
  const double dense_seconds = util::wall_seconds() - t0;
  const double seq_dps = static_cast<double>(n) / dense_seconds;
  std::printf("%-34s %10.0f decisions/s   (%.2f s, %zu submits)\n",
              "sequential B=1 dense (status quo)", seq_dps, dense_seconds, dense_submits);

  t0 = util::wall_seconds();
  std::size_t top1_submits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    top1_submits += kind == "pg" ? baseline_pg.act_greedy(observations[i])
                                 : baseline.act_greedy(observations[i]);
  }
  const double top1_seconds = util::wall_seconds() - t0;
  const double top1_dps = static_cast<double>(n) / top1_seconds;
  const double routing_gain = top1_dps / seq_dps;
  std::printf("%-34s %10.0f decisions/s   %5.1fx vs B=1 (routing gain; %zu submits)\n",
              "sequential B=1 act_greedy", top1_dps, routing_gain, top1_submits);

  // ---- 2. direct batched inference ---------------------------------------
  bool target_met = false;
  double batching_gain = 0.0;
  for (const std::size_t b : batches) {
    t0 = util::wall_seconds();
    std::vector<std::vector<float>> chunk;
    chunk.reserve(b);
    for (std::size_t i = 0; i < n;) {
      chunk.clear();
      for (; chunk.size() < b && i < n; ++i) chunk.push_back(observations[i]);
      model->infer(chunk);
    }
    const double seconds = util::wall_seconds() - t0;
    const double dps = static_cast<double>(n) / seconds;
    const double speedup = dps / seq_dps;
    if (b >= 16 && speedup >= 4.0) target_met = true;
    batching_gain = std::max(batching_gain, dps / top1_dps);
    std::printf("%-34s %10.0f decisions/s   %5.1fx vs B=1   %5.2fx batching gain\n",
                ("batched B=" + std::to_string(b)).c_str(), dps, speedup, dps / top1_dps);
  }

  // ---- 3. end-to-end engine (coalescing queue, client threads) -----------
  serve::EngineConfig engine_cfg;
  engine_cfg.max_batch = static_cast<std::size_t>(cli.get_int("max_batch", 256));
  engine_cfg.coalesce_wait = std::chrono::microseconds(cli.get_int("coalesce_us", 200));
  serve::BatchedInferenceEngine engine(registry, load.key, engine_cfg);
  engine.start();
  t0 = util::wall_seconds();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<serve::AsyncDecision> pending;
        std::vector<float> obs;
        for (std::size_t i = c; i < n; i += clients) {
          obs = observations[i];
          pending.emplace_back();
          if (engine.submit_pooled(obs, pending.back()) !=
              serve::BatchedInferenceEngine::SubmitResult::kOk) {
            throw serve::BackpressureRejected();
          }
        }
        for (auto& d : pending) d.get();
      });
    }
    for (auto& t : threads) t.join();
  }
  const double engine_seconds = util::wall_seconds() - t0;
  engine.drain();
  const auto stats = engine.stats();
  const double engine_dps = static_cast<double>(n) / engine_seconds;
  std::printf("%-34s %10.0f decisions/s   %5.1fx vs B=1   (%zu clients)\n",
              "engine end-to-end", engine_dps, engine_dps / seq_dps, clients);
  std::printf("  ticks %llu  mean batch %.1f  max batch %zu\n",
              static_cast<unsigned long long>(stats.ticks), stats.mean_batch, stats.max_batch);
  // This engine is the process's only one, so the process-wide
  // decision-latency histogram holds exactly its n decisions.
  const obs::Histogram& latency = serve::decision_latency_histogram();
  const double p99_ms = latency.percentile(99.0) * 1e3;
  std::printf("  request latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  p99.9 %.2f ms\n",
              latency.percentile(50.0) * 1e3, latency.percentile(95.0) * 1e3, p99_ms,
              latency.percentile(99.9) * 1e3);

  std::printf("\nbatched >=4x target (B>=16): %s\n", target_met ? "PASS" : "FAIL");

  bench::BenchJson json("serve_throughput");
  json.add("decisions", static_cast<std::int64_t>(n))
      .add("threads", static_cast<std::int64_t>(clients))
      .add("wall_seconds", engine_seconds)
      .add("sequential_decisions_per_sec", seq_dps)
      .add("top1_b1_decisions_per_sec", top1_dps)
      .add("routing_gain", routing_gain)
      .add("batching_gain", batching_gain)
      .add("engine_decisions_per_sec", engine_dps)
      .add("latency_p99_ms", p99_ms)
      .add("target_met", static_cast<std::int64_t>(target_met ? 1 : 0));
  json.add_resource_fields();
  json.write();

  std::filesystem::remove(ckpt);
  return target_met ? 0 : 2;
}
