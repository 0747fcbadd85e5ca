#include "rl/policy_gradient.hpp"

#include <algorithm>
#include <cmath>

#include "nn/loss.hpp"
#include "rl/replay_buffer.hpp"
#include "rl/state_encoder.hpp"

namespace mirage::rl {

PgAgent::PgAgent(PgConfig config, std::uint64_t seed)
    : config_(config), model_(config.foundation, config.net, seed) {
  model_.policy_head().bias().value.at(0, 1) = config_.initial_submit_bias;
  optimizer_ = std::make_unique<nn::Adam>(model_.policy_parameters(), config_.lr);
}

float PgAgent::submit_probability(std::vector<float> observation) {
  set_action_channel(observation, config_.net.history_len, 0.0f);
  nn::Tensor x(1, observation.size());
  std::copy(observation.begin(), observation.end(), x.row(0));
  nn::Tensor probs = model_.infer_policy(x);  // bitwise == forward_policy(x, false)
  return probs.at(0, 1);
}

int PgAgent::act_sample(std::vector<float> observation, util::Rng& rng) {
  return rng.uniform() < submit_probability(std::move(observation)) ? 1 : 0;
}

int PgAgent::act_greedy(std::vector<float> observation) {
  return submit_probability(std::move(observation)) > 0.5f ? 1 : 0;
}

float PgAgent::update(const std::vector<PgEpisode>& episodes) {
  if (episodes.empty()) return 0.0f;

  // Gather (possibly subsampled) steps from all episodes into one batch.
  struct Step {
    const std::vector<float>* obs;
    int action;
    float advantage;
  };
  std::vector<Step> steps;
  float batch_reward_mean = 0.0f;
  for (const auto& ep : episodes) batch_reward_mean += ep.reward;
  batch_reward_mean /= static_cast<float>(episodes.size());

  if (!baseline_init_) {
    baseline_ = batch_reward_mean;
    baseline_init_ = true;
  }

  for (const auto& ep : episodes) {
    const float adv = ep.reward - baseline_;
    const std::size_t n = ep.observations.size();
    if (n == 0) continue;
    const std::size_t stride =
        std::max<std::size_t>(1, n / config_.max_steps_per_episode + (n % config_.max_steps_per_episode ? 1 : 0));
    for (std::size_t i = 0; i < n; i += stride) {
      steps.push_back({&ep.observations[i], ep.actions[i], adv});
    }
  }
  if (steps.empty()) return 0.0f;

  const std::size_t dim = steps.front().obs->size();
  nn::Tensor x(steps.size(), dim);
  std::vector<int> actions(steps.size());
  std::vector<float> advantages(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    std::copy(steps[i].obs->begin(), steps[i].obs->end(), x.row(i));
    actions[i] = steps[i].action;
    advantages[i] = steps[i].advantage;
  }

  optimizer_->zero_grad();
  nn::Tensor probs = model_.forward_policy(x, /*train=*/true);
  auto [loss, grad] = nn::policy_gradient_loss(probs, actions, advantages);

  // Entropy bonus: dH/dlogit_c = -p_c * (log p_c + H); subtracting
  // beta*dH/dlogit from the loss gradient encourages exploration.
  if (config_.entropy_bonus > 0.0f) {
    const float beta = config_.entropy_bonus / static_cast<float>(steps.size());
    for (std::size_t b = 0; b < probs.rows(); ++b) {
      float entropy = 0.0f;
      for (std::size_t c = 0; c < probs.cols(); ++c) {
        const float p = std::max(probs.at(b, c), 1e-12f);
        entropy -= p * std::log(p);
      }
      for (std::size_t c = 0; c < probs.cols(); ++c) {
        const float p = std::max(probs.at(b, c), 1e-12f);
        grad.at(b, c) += beta * p * (std::log(p) + entropy);
      }
    }
  }

  model_.backward_policy_logits(grad);
  nn::clip_grad_norm(optimizer_->params(), config_.grad_clip);
  optimizer_->step();

  baseline_ = config_.baseline_decay * baseline_ +
              (1.0f - config_.baseline_decay) * batch_reward_mean;
  return loss;
}

}  // namespace mirage::rl
