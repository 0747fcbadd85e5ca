// Serving-throughput bench behind the serve subsystem's headline claim:
// batched serving beats the status-quo B=1 loop by >=4x decisions/sec on
// the same checkpoint.
//
// The B=1 baseline is exactly what every caller does today
// (rl::DqnAgent::q_pair -> dense forward over ALL MoE experts, two rows
// at a time). The batched path is ServableModel::infer: requests
// coalesce into one [B, k*(m+1)] tensor and, for Top-1 MoE checkpoints,
// the gate routes rows into per-expert sub-batches so each expert runs
// once over only its rows — the sparse-routing saving the paper left on
// the table, which only stays GEMM-friendly when serving is batched.
//
// Three measurements on the same checkpoint (loaded through the real
// ModelRegistry path):
//   1. sequential B=1 serving (status quo);
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

  // ---- 1. sequential B=1 (status quo: q_pair, dense forward) -------------
  // Reload the same checkpoint into a plain agent: this is precisely the
  // serving path the offline pipeline (DqnProvisioner -> act_greedy)
  // uses today.
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

  double t0 = util::wall_seconds();
  std::size_t submit_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (kind == "pg") {
      submit_count += baseline_pg.act_greedy(observations[i]);
    } else {
      submit_count += baseline.act_greedy(observations[i]);
    }
  }
  const double seq_seconds = util::wall_seconds() - t0;
  const double seq_dps = static_cast<double>(n) / seq_seconds;
  std::printf("%-28s %10.0f decisions/s   (%.2f s, %zu submits)\n",
              "sequential B=1 (status quo)", seq_dps, seq_seconds, submit_count);

  // ---- 2. direct batched inference ---------------------------------------
  bool target_met = false;
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
    std::printf("%-28s %10.0f decisions/s   %5.1fx vs B=1\n",
                ("batched B=" + std::to_string(b)).c_str(), dps, speedup);
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
  std::printf("%-28s %10.0f decisions/s   %5.1fx vs B=1   (%zu clients)\n",
              "engine end-to-end", engine_dps, engine_dps / seq_dps, clients);
  std::printf("  ticks %llu  mean batch %.1f  max batch %zu\n",
              static_cast<unsigned long long>(stats.ticks), stats.mean_batch, stats.max_batch);
  std::printf("  request latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  max %.2f ms\n",
              stats.latency.p50_ms, stats.latency.p95_ms, stats.latency.p99_ms,
              stats.latency.max_ms);

  std::printf("\nbatched >=4x target (B>=16): %s\n", target_met ? "PASS" : "FAIL");

  bench::BenchJson json("serve_throughput");
  json.add("decisions", static_cast<std::int64_t>(n))
      .add("threads", static_cast<std::int64_t>(clients))
      .add("wall_seconds", engine_seconds)
      .add("sequential_decisions_per_sec", seq_dps)
      .add("engine_decisions_per_sec", engine_dps)
      .add("latency_p99_ms", stats.latency.p99_ms)
      .add("target_met", static_cast<std::int64_t>(target_met ? 1 : 0));
  json.add_resource_fields();
  json.write();

  std::filesystem::remove(ckpt);
  return target_met ? 0 : 2;
}
