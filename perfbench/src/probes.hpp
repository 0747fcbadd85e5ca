// Layer probes every workload runs in its traced run: public calls of the
// nn and rl layers made directly, at the shapes of the workload's own
// model and on observations the workload produced.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common.hpp"
#include "nn/foundation.hpp"
#include "rl/dqn.hpp"
#include "serve/model_registry.hpp"

namespace perfbench {

template <typename F>
double median_time_s(std::size_t reps, F&& fn) {
  std::vector<double> t;
  t.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

/// Reps so one measured call set lasts about `budget_s`.
inline std::size_t reps_for(double one_call_s, double budget_s) {
  return static_cast<std::size_t>(std::clamp(budget_s / std::max(one_call_s, 1e-7), 5.0, 2000.0));
}

/// nn layer: the model's infer at B=1 and B=64 (default GEMM threads and
/// one thread), heap allocations per infer, and standalone module forwards
/// with the architecture's widths at the per-expert sub-batch shape
/// (`expert_items` histories of k frames; gate and head at 2 x `batch`
/// rows, one per action).
void nn_probes(const mirage::serve::ServableModel& model,
               const mirage::nn::FoundationConfig& net, std::size_t batch, std::size_t expert_items,
               const std::vector<std::vector<float>>& observations, Result& r);

/// nn.q_pair_us and nn.q_pair_allocs: the agent's Q(wait), Q(submit) pair
/// on recorded observations.
void q_pair_probe(mirage::rl::DqnAgent& agent,
                  const std::vector<std::vector<float>>& observations, Result& r);

/// rl.pretrain_step_ms: DqnAgent::pretrain_batch at `batch` samples built
/// from recorded observations (seeded actions and rewards). Trains the
/// agent it is given.
void pretrain_step_probe(mirage::rl::DqnAgent& agent,
                         const std::vector<std::vector<float>>& observations, std::size_t batch,
                         Result& r);

}  // namespace perfbench
