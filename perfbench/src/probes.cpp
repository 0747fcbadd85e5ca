#include "probes.hpp"

#include <cstdio>
#include <stdexcept>

#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/parallel.hpp"
#include "rl/replay_buffer.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace mirage;

void nn_probes(const serve::ServableModel& model, const nn::FoundationConfig& net,
               std::size_t batch, std::size_t expert_items,
               const std::vector<std::vector<float>>& observations, Result& r) {
  if (observations.empty()) throw std::runtime_error("nn probes need recorded observations");
  std::vector<std::vector<float>> b1 = {observations.front()};
  std::vector<std::vector<float>> b64;
  for (std::size_t i = 0; i < 64; ++i) b64.push_back(observations[i % observations.size()]);

  model.infer(b1);
  model.infer(b64);
  const double one_b1 = median_time_s(3, [&] { model.infer(b1); });
  r.layer("nn.infer_ms.b1", 1e3 * median_time_s(reps_for(one_b1, 0.5), [&] { model.infer(b1); }));
  const double one_b64 = median_time_s(3, [&] { model.infer(b64); });
  const std::size_t reps64 = reps_for(one_b64, 1.0);
  r.layer("nn.infer_ms.b64", 1e3 * median_time_s(reps64, [&] { model.infer(b64); }));
  {
    nn::ScopedNumThreads one(1);
    r.layer("nn.infer_ms.b64.t1", 1e3 * median_time_s(reps64, [&] { model.infer(b64); }));
  }
  std::uint64_t a0 = bench::allocation_count();
  model.infer(b1);
  r.layer("nn.infer_allocs.b1", static_cast<double>(bench::allocation_count() - a0));
  a0 = bench::allocation_count();
  model.infer(b64);
  r.layer("nn.infer_allocs.b64", static_cast<double>(bench::allocation_count() - a0));

  // Standalone modules with the model's widths.
  util::Rng rng(0x5eedu);
  const std::size_t k = net.history_len;
  const std::size_t rows = expert_items * k;
  const std::size_t d = net.d_model;
  const std::size_t m = net.state_dim;
  auto random_tensor = [&](std::size_t nr, std::size_t nc) {
    nn::Tensor t(nr, nc);
    for (std::size_t i = 0; i < nr; ++i) {
      for (std::size_t j = 0; j < nc; ++j) t.row(i)[j] = static_cast<float>(rng.normal());
    }
    return t;
  };
  nn::Linear embed(m, d, rng, "embed");
  nn::MultiHeadSelfAttention mhsa(k, d, net.num_heads, rng, "mhsa");
  nn::Linear ffn1(d, net.ffn_hidden, rng, "ffn1");
  nn::Linear ffn2(net.ffn_hidden, d, rng, "ffn2");
  nn::GELU gelu;
  nn::LayerNorm ln(d, "ln");
  nn::Linear gate(m, net.moe_experts, rng, "gate");
  nn::Linear head(d, 1, rng, "head");
  const nn::Tensor frames = random_tensor(rows, m);
  const nn::Tensor hidden = random_tensor(rows, d);
  const nn::Tensor wide = random_tensor(rows, net.ffn_hidden);
  const nn::Tensor means = random_tensor(2 * batch, m);
  const nn::Tensor pooled = random_tensor(2 * batch, d);

  auto module_ms = [&](auto&& fn) {
    fn();
    const double one = median_time_s(3, fn);
    return 1e3 * median_time_s(reps_for(one, 0.25), fn);
  };
  const double embed_ms = module_ms([&] { embed.forward(frames, false); });
  const double ffn1_ms = module_ms([&] { ffn1.forward(hidden, false); });
  const double ffn2_ms = module_ms([&] { ffn2.forward(wide, false); });
  r.layer("nn.embed_ms", embed_ms);
  r.layer("nn.mhsa_ms", module_ms([&] { mhsa.forward(hidden, false); }));
  r.layer("nn.ffn_ms", module_ms([&] {
            ffn2.forward(gelu.forward(ffn1.forward(hidden, false), false), false);
          }));
  r.layer("nn.layernorm_ms", module_ms([&] { ln.forward(hidden, false); }));
  r.layer("nn.gelu_ms", module_ms([&] { gelu.forward(wide, false); }));
  r.layer("nn.gate_ms", module_ms([&] { gate.forward(means, false); }));
  r.layer("nn.head_ms", module_ms([&] { head.forward(pooled, false); }));
  const double flops = 2.0 * static_cast<double>(rows) *
                       static_cast<double>(m * d + 2 * d * net.ffn_hidden);
  r.layer("nn.linear_gflops", flops / (1e-3 * (embed_ms + ffn1_ms + ffn2_ms)) / 1e9);
  std::printf("nn probes: %zu-row expert sub-batch, batch %zu, k=%zu\n", rows, batch, k);
}

void q_pair_probe(rl::DqnAgent& agent, const std::vector<std::vector<float>>& observations,
                  Result& r) {
  if (observations.empty()) throw std::runtime_error("q_pair probe needs recorded observations");
  // Up to 256 observations spread over the recording, or as many as fit
  // in about a second.
  const std::size_t stride = std::max<std::size_t>(1, observations.size() / 256);
  std::vector<double> times;
  const double start = now_s();
  for (std::size_t i = 0; i < observations.size(); i += stride) {
    const double t0 = now_s();
    agent.q_pair(observations[i]);
    times.push_back(now_s() - t0);
    if (times.size() >= 5 && now_s() - start > 1.0) break;
  }
  const std::uint64_t a0 = bench::allocation_count();
  agent.q_pair(observations.front());
  r.layer("nn.q_pair_us", 1e6 * median(times));
  r.layer("nn.q_pair_allocs", static_cast<double>(bench::allocation_count() - a0));
}

void pretrain_step_probe(rl::DqnAgent& agent, const std::vector<std::vector<float>>& observations,
                         std::size_t batch, Result& r) {
  if (observations.empty()) throw std::runtime_error("pretrain probe needs recorded observations");
  constexpr std::size_t kSteps = 3;  // a step at k=144, B=32 takes over a second
  util::Rng rng(0x9e7au);
  std::vector<rl::Experience> samples(kSteps * batch);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].observation = observations[i % observations.size()];
    samples[i].action = static_cast<int>(i % 2);
    samples[i].reward = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  std::vector<double> times;
  for (std::size_t s = 0; s < kSteps; ++s) {
    std::vector<const rl::Experience*> step;
    for (std::size_t i = 0; i < batch; ++i) step.push_back(&samples[s * batch + i]);
    const double t0 = now_s();
    agent.pretrain_batch(step);
    times.push_back(now_s() - t0);
  }
  r.layer("rl.pretrain_step_ms", 1e3 * median(times));
}

}  // namespace perfbench
