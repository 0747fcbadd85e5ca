#include "rl/dqn.hpp"

#include <algorithm>

#include "nn/loss.hpp"

namespace mirage::rl {

namespace {
constexpr float kSubmitOrdinal = 1.0f;
constexpr float kNoSubmitOrdinal = -1.0f;

float ordinal(int action) { return action == 1 ? kSubmitOrdinal : kNoSubmitOrdinal; }
}  // namespace

DqnAgent::DqnAgent(DqnConfig config, std::uint64_t seed)
    : config_(config), model_(config.foundation, config.net, seed) {
  optimizer_ = std::make_unique<nn::Adam>(model_.q_parameters(), config_.lr);
}

std::pair<float, float> DqnAgent::q_pair(std::vector<float> observation) {
  const std::size_t k = config_.net.history_len;
  nn::Tensor x(2, observation.size());
  set_action_channel(observation, k, kNoSubmitOrdinal);
  std::copy(observation.begin(), observation.end(), x.row(0));
  set_action_channel(observation, k, kSubmitOrdinal);
  std::copy(observation.begin(), observation.end(), x.row(1));
  // infer_q is bitwise-identical to forward_q(x, false) but runs a Top-1
  // MoE row through its routed expert only.
  nn::Tensor q = model_.infer_q(x);
  return {q.at(0, 0), q.at(1, 0)};
}

int DqnAgent::act_greedy(std::vector<float> observation) {
  const auto [q_wait, q_submit] = q_pair(std::move(observation));
  return q_submit > q_wait ? 1 : 0;
}

float DqnAgent::epsilon(std::size_t episode_index) const {
  if (config_.eps_decay_episodes == 0) return config_.eps_end;
  const float frac = std::min(
      1.0f, static_cast<float>(episode_index) / static_cast<float>(config_.eps_decay_episodes));
  return config_.eps_start + frac * (config_.eps_end - config_.eps_start);
}

int DqnAgent::act_epsilon_greedy(std::vector<float> observation, std::size_t episode_index,
                                 util::Rng& rng) {
  if (rng.uniform() < epsilon(episode_index)) {
    // Biased random exploration: submitting ends the decision phase, so a
    // fair coin would make exploratory episodes submit almost immediately;
    // a small submit probability explores the length of the episode.
    return rng.bernoulli(0.05) ? 1 : 0;
  }
  return act_greedy(std::move(observation));
}

float DqnAgent::train_on(const std::vector<const Experience*>& batch) {
  const std::size_t k = config_.net.history_len;
  nn::Tensor x(batch.size(), batch.front()->observation.size());
  nn::Tensor target(batch.size(), 1);
  std::vector<float> obs;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    obs = batch[b]->observation;
    set_action_channel(obs, k, ordinal(batch[b]->action));
    std::copy(obs.begin(), obs.end(), x.row(b));
    target.at(b, 0) = batch[b]->reward;
  }
  optimizer_->zero_grad();
  nn::Tensor pred = model_.forward_q(x, /*train=*/true);
  auto [loss, grad] = nn::huber_loss(pred, target, config_.huber_delta);
  model_.backward_q(grad);
  nn::clip_grad_norm(optimizer_->params(), config_.grad_clip);
  optimizer_->step();
  return loss;
}

float DqnAgent::train_batch(const ReplayBuffer& buffer, util::Rng& rng) {
  if (buffer.empty()) return 0.0f;
  return train_on(buffer.sample(config_.batch_size, rng));
}

float DqnAgent::pretrain_batch(const std::vector<const Experience*>& batch) {
  if (batch.empty()) return 0.0f;
  return train_on(batch);
}

}  // namespace mirage::rl
