// Micro-benchmarks for the substrates' hot paths: GEMM, attention
// forward/backward, foundation forward, DQN serving and simulator event
// throughput. These back the Figure 5/6 architecture cost discussion and
// the §5.2 "low-overhead simulator" claim.
//
// Run with no arguments (CI mode) for the parallel scaling harness:
// matmul GFLOP/s at T=1,2,4,8,hw, and the attention forward at the
// serving shape (2304 rows: 16 histories of k=144 frames, d_model 32,
// 2 heads) at T=1 and T=hw, each with a bitwise parallel-vs-serial audit
// (nonzero exit on any byte difference — the determinism contract is a
// gate, not a hope), written to BENCH_nn_micro.json for the bench_compare
// regression gate (key=gemm_gflops_tmax; attention_ms_t1 and
// attention_ms_tmax are report-only). Pass any --benchmark* flag to run
// the google-benchmark suite instead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "nn/dual_head.hpp"
#include "nn/parallel.hpp"
#include "rl/dqn.hpp"
#include "sim/simulator.hpp"
#include "trace/generator.hpp"
#include "util/time_utils.hpp"

namespace {

using namespace mirage;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  nn::Tensor a(n, n), b(n, n), c;
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_MatmulThreads(benchmark::State& state) {
  // The tiled parallel kernel across thread counts: same bits for every
  // row of this benchmark, different wall time. range(0) = n, range(1) = T.
  const auto n = static_cast<std::size_t>(state.range(0));
  nn::ScopedNumThreads threads(static_cast<std::size_t>(state.range(1)));
  util::Rng rng(1);
  nn::Tensor a(n, n), b(n, n), c;
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MatmulThreads)->ArgsProduct({{128, 256}, {1, 2, 4, 8}});

void BM_MatmulNT(benchmark::State& state) {
  // A * B^T — the attention-score / backward-dX shape. Covers the
  // register-blocked kernel (tensor.cpp) whose results stay bitwise
  // identical to the plain dot-per-column form.
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  nn::Tensor a(n, 32), b(n, 32), c;
  for (float& v : a.flat()) v = static_cast<float>(rng.normal());
  for (float& v : b.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    nn::matmul_nt(a, b, c, false);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(2 * n * n * 32));
}
BENCHMARK(BM_MatmulNT)->Arg(48)->Arg(144)->Arg(512);

nn::FoundationConfig bench_net(std::size_t k) {
  nn::FoundationConfig cfg;
  cfg.history_len = k;
  cfg.state_dim = 41;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.num_layers = 2;
  cfg.ffn_hidden = 64;
  cfg.moe_experts = 4;
  return cfg;
}

void BM_AttentionForward(benchmark::State& state) {
  const auto seq = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  nn::MultiHeadSelfAttention attn(seq, 32, 2, rng);
  nn::Tensor x(seq * 4, 32);  // batch of 4
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto y = attn.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(48)->Arg(144);

void BM_FoundationForwardBackward(benchmark::State& state) {
  const auto cfg = bench_net(static_cast<std::size_t>(state.range(0)));
  nn::TransformerFoundation f(cfg, 3);
  util::Rng rng(3);
  nn::Tensor x(8, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto y = f.forward(x, true);
    auto dx = f.backward(y);
    benchmark::DoNotOptimize(dx.data());
  }
}
BENCHMARK(BM_FoundationForwardBackward)->Arg(16)->Arg(48);

void BM_MoEForward(benchmark::State& state) {
  auto cfg = bench_net(16);
  cfg.moe_experts = static_cast<std::size_t>(state.range(0));
  nn::MoEFoundation f(cfg, 4);
  util::Rng rng(4);
  nn::Tensor x(4, cfg.input_dim());
  for (float& v : x.flat()) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    auto y = f.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_MoEForward)->Arg(2)->Arg(4)->Arg(10);

void BM_DqnServingDecision(benchmark::State& state) {
  rl::DqnConfig cfg;
  cfg.net = bench_net(static_cast<std::size_t>(state.range(0)));
  rl::DqnAgent agent(cfg, 5);
  std::vector<float> obs(cfg.net.input_dim(), 0.1f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_greedy(obs));
  }
}
BENCHMARK(BM_DqnServingDecision)->Arg(16)->Arg(144);

void BM_SimulatorMonthReplay(benchmark::State& state) {
  trace::GeneratorOptions opt;
  opt.seed = 6;
  const auto preset = trace::a100_preset();
  trace::SyntheticTraceGenerator gen(preset, opt);
  const auto month = gen.generate_months(2, 3);  // the heavy month
  for (auto _ : state) {
    auto sched = sim::replay_trace(month, preset.node_count);
    benchmark::DoNotOptimize(sched.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(month.size()));
}
BENCHMARK(BM_SimulatorMonthReplay)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- GEMM scaling harness

struct GemmCase {
  std::size_t m, k, n;
  nn::Tensor a, b;
};

/// Best-of-reps seconds for one full pass over the cases at thread count
/// T; fills `outs` with the last pass's results (for the bitwise audit).
double time_gemm_pass(const std::vector<GemmCase>& cases, std::size_t threads, int reps,
                      std::vector<nn::Tensor>& outs) {
  nn::ScopedNumThreads scope(threads);
  outs.resize(cases.size());
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = util::wall_seconds();
    for (std::size_t i = 0; i < cases.size(); ++i) {
      nn::matmul(cases[i].a, cases[i].b, outs[i]);
    }
    best = std::min(best, util::wall_seconds() - t0);
  }
  return best;
}

/// Best-of-reps milliseconds of one attention forward at thread count T;
/// `out` keeps the last forward's output (for the bitwise audit).
double time_attention(nn::MultiHeadSelfAttention& attn, const nn::Tensor& x,
                      std::size_t threads, int reps, nn::Tensor& out) {
  nn::ScopedNumThreads scope(threads);
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = util::wall_seconds();
    out = attn.forward(x, false);
    best = std::min(best, util::wall_seconds() - t0);
  }
  return 1e3 * best;
}

/// CI mode: measure matmul GFLOP/s across thread counts and the attention
/// forward at T=1 and T=hw, audit that every thread count reproduces the
/// serial bytes, emit BENCH_nn_micro.json. Returns the process exit code
/// (nonzero = determinism violation).
int run_scaling(int argc, char** argv) {
  const auto cli = util::Config::from_args(argc, argv);
  const int reps = static_cast<int>(cli.get_int("reps", 7));
  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());

  // Square sizes past the serial cutoff, plus one ragged shape so tile
  // remainders are always part of the audited surface.
  std::vector<GemmCase> cases;
  util::Rng rng(42);
  for (const std::size_t n : {128, 192, 256}) {
    GemmCase c{n, n, n, nn::Tensor(n, n), nn::Tensor(n, n)};
    for (float& v : c.a.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    for (float& v : c.b.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    cases.push_back(std::move(c));
  }
  {
    GemmCase c{90, 170, 310, nn::Tensor(90, 170), nn::Tensor(170, 310)};
    for (float& v : c.a.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    for (float& v : c.b.flat()) v = rng.uniform() < 0.1 ? 0.0f : static_cast<float>(rng.normal());
    cases.push_back(std::move(c));
  }
  double total_flops = 0.0;
  for (const auto& c : cases) total_flops += 2.0 * double(c.m) * double(c.k) * double(c.n);

  std::vector<std::size_t> thread_counts{1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) == thread_counts.end()) {
    thread_counts.push_back(hw);
  }

  std::vector<nn::Tensor> serial_outs;
  const double serial_best = time_gemm_pass(cases, 1, reps, serial_outs);
  const double gflops_t1 = total_flops / serial_best / 1e9;

  std::printf("parallel deterministic GEMM scaling (%zu shapes, best of %d, hw=%zu)\n",
              cases.size(), reps, hw);
  std::printf("%8s %12s %12s %10s %9s\n", "threads", "seconds", "GFLOP/s", "speedup", "bitwise");
  std::printf("%8zu %12.6f %12.2f %10.2f %9s\n", std::size_t{1}, serial_best, gflops_t1, 1.0,
              "ref");

  bool bitwise_ok = true;
  double gflops_tmax = gflops_t1;
  std::size_t tmax = 1;
  for (const std::size_t t : thread_counts) {
    if (t == 1) continue;
    std::vector<nn::Tensor> outs;
    const double best = time_gemm_pass(cases, t, reps, outs);
    bool same = true;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      same = same && std::memcmp(outs[i].data(), serial_outs[i].data(),
                                 serial_outs[i].size() * sizeof(float)) == 0;
    }
    bitwise_ok = bitwise_ok && same;
    const double gflops = total_flops / best / 1e9;
    std::printf("%8zu %12.6f %12.2f %10.2f %9s\n", t, best, gflops, serial_best / best,
                same ? "ok" : "DIFF");
    if (t >= tmax) {  // report the highest audited thread count
      tmax = t;
      gflops_tmax = gflops;
    }
  }
  if (!bitwise_ok) {
    std::fprintf(stderr,
                 "FAIL: parallel GEMM diverged from the serial bytes — the "
                 "determinism contract is broken\n");
  }

  // Attention forward at the serving shape: one Top-1 expert's share of a
  // 64-decision serve batch at the paper's k=144.
  constexpr std::size_t kSeq = 144, kItems = 16, kModel = 32, kHeads = 2;
  util::Rng attn_rng(7);
  nn::MultiHeadSelfAttention attn(kSeq, kModel, kHeads, attn_rng);
  nn::Tensor hidden(kItems * kSeq, kModel);
  for (float& v : hidden.flat()) v = static_cast<float>(attn_rng.normal());
  nn::Tensor attn_t1, attn_tmax;
  const double attention_ms_t1 = time_attention(attn, hidden, 1, reps, attn_t1);
  const double attention_ms_tmax = time_attention(attn, hidden, hw, reps, attn_tmax);
  const bool attention_same = std::memcmp(attn_t1.data(), attn_tmax.data(),
                                          attn_t1.size() * sizeof(float)) == 0;
  std::printf("attention forward %zux%zu, %zu heads: %.3f ms at T=1, %.3f ms at T=%zu "
              "(%.2fx), bitwise %s\n",
              kItems * kSeq, kModel, kHeads, attention_ms_t1, attention_ms_tmax, hw,
              attention_ms_t1 / attention_ms_tmax, attention_same ? "ok" : "DIFF");
  if (!attention_same) {
    std::fprintf(stderr,
                 "FAIL: parallel attention diverged from the serial bytes — the "
                 "determinism contract is broken\n");
  }
  bitwise_ok = bitwise_ok && attention_same;

  bench::BenchJson json("nn_micro");
  json.add("params",
           "sizes=128,192,256,90x170x310 attention=2304x32h2k144 reps=" +
               std::to_string(reps) +
               " tmax=" + std::to_string(tmax))
      .add("hardware_threads", static_cast<std::int64_t>(hw))
      .add("gemm_gflops_t1", gflops_t1)
      .add("gemm_gflops_tmax", gflops_tmax)
      .add("gemm_speedup_tmax", gflops_tmax / gflops_t1)
      .add("attention_ms_t1", attention_ms_t1)
      .add("attention_ms_tmax", attention_ms_tmax)
      .add("bitwise_identical", static_cast<std::int64_t>(bitwise_ok ? 1 : 0))
      .add_resource_fields()
      .write();
  return bitwise_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      benchmark::Initialize(&argc, argv);
      benchmark::RunSpecifiedBenchmarks();
      benchmark::Shutdown();
      return 0;
    }
  }
  return run_scaling(argc, argv);
}
