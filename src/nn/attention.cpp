#include "nn/attention.hpp"

#include <cassert>
#include <cmath>
#include <cstring>

#include "nn/parallel.hpp"
#include "util/thread_pool.hpp"

namespace mirage::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t seq_len, std::size_t d_model,
                                               std::size_t num_heads, util::Rng& rng,
                                               const std::string& name)
    : seq_(seq_len),
      d_model_(d_model),
      heads_(num_heads),
      d_head_(d_model / num_heads),
      wq_(d_model, d_model, rng, name + ".wq"),
      wk_(d_model, d_model, rng, name + ".wk"),
      wv_(d_model, d_model, rng, name + ".wv"),
      wo_(d_model, d_model, rng, name + ".wo") {
  assert(d_model % num_heads == 0);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x, bool train) {
  assert(x.cols() == d_model_ && x.rows() % seq_ == 0);
  batch_ = x.rows() / seq_;
  q_ = wq_.forward(x, train);
  k_ = wk_.forward(x, train);
  v_ = wv_.forward(x, train);

  // Only a training forward keeps the [S, S] softmax maps backward reads;
  // an inference forward scores one row at a time in slot scratch.
  const std::size_t pairs = batch_ * heads_;
  attn_.resize(train ? pairs : 0);
  for (Tensor& map : attn_) {
    if (map.rows() != seq_ || map.cols() != seq_) map = Tensor(seq_, seq_);
  }
  Tensor concat(x.rows(), d_model_);

  // The (item, head) pairs are independent and each writes only its own
  // concat slice and its own map, so they run on the GEMM pool with the
  // GEMM's static schedule: slot w owns pairs w, w+T, ... (nn/parallel.hpp).
  const std::size_t T = parallel_slots(pairs, pairs * 2 * seq_ * seq_ * d_head_);
  const std::size_t stride = (d_head_ + 1) * seq_;
  scratch_.resize(T * stride);
  const auto slot = [&](std::size_t w) {
    for (std::size_t pair = w; pair < pairs; pair += T) {
      attend(pair, concat, train ? attn_[pair].data() : nullptr, scratch_.data() + w * stride);
    }
  };
  if (T <= 1) {
    slot(0);
  } else {
    detail::gemm_pool().run_static(T, slot);
  }
  return wo_.forward(concat, train);
}

namespace {

// Four float lanes (GCC/Clang vector extension). Lane-wise + and * are the
// scalar IEEE operations, so each lane computes exactly what the scalar
// loop computes for its element: blocking changes no result bit.
using Lanes = float __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 4;

inline Lanes load_lanes(const float* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store_lanes(float* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

inline Lanes splat(float x) { return Lanes{x, x, x, x}; }

/// scores[j] = (sum over ascending d of q[d] * kt[d * ld + j]) * scale for
/// j < kWidth: each score starts at 0, accumulated in registers.
template <std::size_t kWidth>
void score_block(const float* q, const float* kt, std::size_t ld, std::size_t depth, float scale,
                 float* scores) {
  Lanes acc[kWidth / kLanes] = {};
  for (std::size_t d = 0; d < depth; ++d) {
    const Lanes qd = splat(q[d]);
    for (std::size_t j = 0; j < kWidth / kLanes; ++j) {
      acc[j] += qd * load_lanes(kt + d * ld + j * kLanes);
    }
  }
  for (std::size_t j = 0; j < kWidth / kLanes; ++j) {
    store_lanes(scores + j * kLanes, acc[j] * splat(scale));
  }
}

/// out[j] = sum over ascending t of w[t] * v[t * ld + j] for j < kWidth,
/// zero weights skipped: each output starts at 0, accumulated in registers.
template <std::size_t kWidth>
void value_block(const float* w, std::size_t n, const float* v, std::size_t ld, float* out) {
  Lanes acc[kWidth / kLanes] = {};
  for (std::size_t t = 0; t < n; ++t) {
    if (w[t] == 0.0f) continue;
    const Lanes a = splat(w[t]);
    for (std::size_t j = 0; j < kWidth / kLanes; ++j) {
      acc[j] += a * load_lanes(v + t * ld + j * kLanes);
    }
  }
  for (std::size_t j = 0; j < kWidth / kLanes; ++j) store_lanes(out + j * kLanes, acc[j]);
}

}  // namespace

void MultiHeadSelfAttention::attend(std::size_t pair, Tensor& concat, float* map,
                                    float* scratch) const {
  const std::size_t base = (pair / heads_) * seq_;
  const std::size_t off = (pair % heads_) * d_head_;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));
  float* kt = scratch;               // [d_head, S]: this head's K^T
  float* row = kt + d_head_ * seq_;  // one score row (inference)
  for (std::size_t t = 0; t < seq_; ++t) {
    const float* kr = k_.row(base + t) + off;
    for (std::size_t d = 0; d < d_head_; ++d) kt[d * seq_ + t] = kr[d];
  }
  const float* v = v_.row(base) + off;  // V[t] of this head at v + t * d_model
  for (std::size_t s = 0; s < seq_; ++s) {
    // scores[s,t] = <Q[s], K[t]> / sqrt(d_head), in blocks of t against K^T.
    float* sr = map != nullptr ? map + s * seq_ : row;
    const float* qr = q_.row(base + s) + off;
    std::size_t t0 = 0;
    for (; t0 + 16 <= seq_; t0 += 16) {
      score_block<16>(qr, kt + t0, seq_, d_head_, inv_sqrt, sr + t0);
    }
    for (; t0 + 4 <= seq_; t0 += 4) score_block<4>(qr, kt + t0, seq_, d_head_, inv_sqrt, sr + t0);
    for (; t0 < seq_; ++t0) {
      float acc = 0.0f;
      for (std::size_t d = 0; d < d_head_; ++d) acc += qr[d] * kt[d * seq_ + t0];
      sr[t0] = acc * inv_sqrt;
    }
    softmax_row(sr, seq_);
    // out[s] = sum_t attn[s,t] * V[t], in blocks of d, stored once into
    // the concat row.
    float* out = concat.row(base + s) + off;
    std::size_t d = 0;
    for (; d + 16 <= d_head_; d += 16) value_block<16>(sr, seq_, v + d, d_model_, out + d);
    for (; d + 8 <= d_head_; d += 8) value_block<8>(sr, seq_, v + d, d_model_, out + d);
    for (; d + 4 <= d_head_; d += 4) value_block<4>(sr, seq_, v + d, d_model_, out + d);
    for (; d < d_head_; ++d) {
      float acc = 0.0f;
      for (std::size_t t = 0; t < seq_; ++t) {
        if (sr[t] != 0.0f) acc += sr[t] * v[t * d_model_ + d];
      }
      out[d] = acc;
    }
  }
}

Tensor MultiHeadSelfAttention::backward(const Tensor& grad_out) {
  assert(attn_.size() == batch_ * heads_ && "backward needs a train=true forward");
  // Through the output projection first.
  Tensor d_concat = wo_.backward(grad_out);

  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));
  Tensor dq(q_.rows(), d_model_), dk(k_.rows(), d_model_), dv(v_.rows(), d_model_);

  for (std::size_t b = 0; b < batch_; ++b) {
    const std::size_t base = b * seq_;
    for (std::size_t h = 0; h < heads_; ++h) {
      const std::size_t off = h * d_head_;
      const Tensor& attn = attn_[b * heads_ + h];

      // dV[t] += sum_s attn[s,t] * d_out[s]
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* go = d_concat.row(base + s) + off;
        const float* ar = attn.row(s);
        for (std::size_t t = 0; t < seq_; ++t) {
          const float a = ar[t];
          if (a == 0.0f) continue;
          float* dvr = dv.row(base + t) + off;
          for (std::size_t d = 0; d < d_head_; ++d) dvr[d] += a * go[d];
        }
      }

      // d_attn[s,t] = <d_out[s], V[t]>; softmax backward row-wise;
      // dQ[s] += dscores[s,t] * K[t] * inv_sqrt; dK[t] += dscores[s,t] * Q[s] * inv_sqrt.
      for (std::size_t s = 0; s < seq_; ++s) {
        const float* go = d_concat.row(base + s) + off;
        const float* ar = attn.row(s);
        d_attn_.assign(seq_, 0.0f);  // reused scratch: no per-row allocation
        float* d_attn = d_attn_.data();
        // 4-row blocking over t: four independent dot chains per sweep of
        // d_out[s], each summed in ascending d like the unblocked tail.
        std::size_t tb = 0;
        for (; tb + 4 <= seq_; tb += 4) {
          const float* v0 = v_.row(base + tb) + off;
          const float* v1 = v_.row(base + tb + 1) + off;
          const float* v2 = v_.row(base + tb + 2) + off;
          const float* v3 = v_.row(base + tb + 3) + off;
          float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
          for (std::size_t d = 0; d < d_head_; ++d) {
            const float gv = go[d];
            a0 += gv * v0[d];
            a1 += gv * v1[d];
            a2 += gv * v2[d];
            a3 += gv * v3[d];
          }
          d_attn[tb] = a0;
          d_attn[tb + 1] = a1;
          d_attn[tb + 2] = a2;
          d_attn[tb + 3] = a3;
        }
        for (; tb < seq_; ++tb) {
          const float* vr = v_.row(base + tb) + off;
          float acc = 0.0f;
          for (std::size_t d = 0; d < d_head_; ++d) acc += go[d] * vr[d];
          d_attn[tb] = acc;
        }
        float dot = 0.0f;
        for (std::size_t t = 0; t < seq_; ++t) dot += d_attn[t] * ar[t];
        float* dqr = dq.row(base + s) + off;
        const float* qr = q_.row(base + s) + off;
        for (std::size_t t = 0; t < seq_; ++t) {
          const float ds = ar[t] * (d_attn[t] - dot) * inv_sqrt;
          if (ds == 0.0f) continue;
          const float* kr = k_.row(base + t) + off;
          float* dkr = dk.row(base + t) + off;
          for (std::size_t d = 0; d < d_head_; ++d) {
            dqr[d] += ds * kr[d];
            dkr[d] += ds * qr[d];
          }
        }
      }
    }
  }

  Tensor dx = wq_.backward(dq);
  dx.add(wk_.backward(dk));
  dx.add(wv_.backward(dv));
  return dx;
}

void MultiHeadSelfAttention::collect_params(std::vector<Parameter*>& out) {
  wq_.collect_params(out);
  wk_.collect_params(out);
  wv_.collect_params(out);
  wo_.collect_params(out);
}

}  // namespace mirage::nn
