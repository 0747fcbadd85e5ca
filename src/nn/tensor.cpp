#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>

#include "nn/parallel.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace mirage::nn {

Tensor Tensor::row_vector(std::span<const float> values) {
  Tensor t(1, values.size());
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor& Tensor::add(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::add_scaled(const Tensor& other, float s) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += s * other.data_[i];
  return *this;
}

Tensor& Tensor::mul(const Tensor& other) {
  assert(size() == other.size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

Tensor& Tensor::scale(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

float Tensor::squared_norm() const {
  float acc = 0.0f;
  for (float v : data_) acc += v * v;
  return acc;
}

// --------------------------------------------------------------------------
// Parallel deterministic GEMM.
//
// All three variants run through ONE scheme: the output matrix is cut into
// a fixed 2-D tile grid (kTileM x kTileN, a function of the output shape
// only — never of the thread count), tiles are assigned to worker slots
// round-robin by ascending tile index, and every slot computes its tiles
// with the SAME kernel the serial path uses on the single whole-matrix
// tile. Slots own disjoint regions of `out` (no partial k-sums are ever
// merged — each slot owns an element's full k reduction), and within a
// kernel every element accumulates its k-products in strictly ascending k
// order. The value of out[i][j] therefore depends only on (a, b, i, j),
// not on the tile boundaries or the thread count: parallel(T) == serial
// BITWISE for every T, which is what lets the lab's parallel-cell sweeps
// run GEMM at 1 thread while serial runs fan out across the machine and
// still produce bitwise-identical leaderboards.
//
// The tiles share the pool (and its static slot schedule) with the
// attention pairs and GELU chunks; see nn/parallel.hpp. A tile kernel
// never dispatches onto the pool itself.
//
// Small matrices (below nn::parallel_slots' work floor, ~64^3) take
// the serial whole-matrix path outright so per-layer forwards of tiny
// models never pay dispatch overhead (futures + wakeups cost
// microseconds; a 64^3 GEMM is one).
namespace {

constexpr std::size_t kBlockK = 128;  // ~n*512 B of B per block: L1/L2-resident
constexpr std::size_t kTileM = 16;    // multiple of the 4-row register block
constexpr std::size_t kTileN = 256;   // long contiguous j runs for the vectorizer

/// ikj-order tile kernel for out[i0:i1, j0:j1] += A * B (A MxK, B KxN).
/// The k loop is cache-blocked so one block of B rows stays hot across
/// every row of the tile, and rows are register-blocked 4 at a time: one
/// sweep of a B row feeds four independent output-row accumulation
/// streams (4x fewer B loads, 4 independent FMA chains for the
/// vectorizer). For each output element the products still accumulate in
/// strictly ascending k order (blocks ascend, k ascends within a block,
/// and a row's update at k happens iff a[i][k] != 0 exactly as in the
/// single-row form), so results are bitwise identical to the unblocked
/// serial kernel regardless of tiling.
void gemm_nn_tile(const float* __restrict a, const float* __restrict b,
                  float* __restrict out, std::size_t k, std::size_t n, std::size_t i0,
                  std::size_t i1, std::size_t j0, std::size_t j1, bool accumulate) {
  if (!accumulate) {
    for (std::size_t i = i0; i < i1; ++i) std::fill(out + i * n + j0, out + i * n + j1, 0.0f);
  }
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t p1 = std::min(k, p0 + kBlockK);
    std::size_t i = i0;
    for (; i + 4 <= i1; i += 4) {
      const float* __restrict a0 = a + (i + 0) * k;
      const float* __restrict a1 = a + (i + 1) * k;
      const float* __restrict a2 = a + (i + 2) * k;
      const float* __restrict a3 = a + (i + 3) * k;
      float* __restrict o0 = out + (i + 0) * n;
      float* __restrict o1 = out + (i + 1) * n;
      float* __restrict o2 = out + (i + 2) * n;
      float* __restrict o3 = out + (i + 3) * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        const float* __restrict brow = b + p * n;
        if (av0 != 0.0f && av1 != 0.0f && av2 != 0.0f && av3 != 0.0f) {
          for (std::size_t j = j0; j < j1; ++j) {
            const float bv = brow[j];
            o0[j] += av0 * bv;
            o1[j] += av1 * bv;
            o2[j] += av2 * bv;
            o3[j] += av3 * bv;
          }
        } else {
          // Per-row zero skip, exactly as the single-row form takes it:
          // a row updates at this k iff its a-value is nonzero.
          if (av0 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o0[j] += av0 * brow[j];
          }
          if (av1 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o1[j] += av1 * brow[j];
          }
          if (av2 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o2[j] += av2 * brow[j];
          }
          if (av3 != 0.0f) {
            for (std::size_t j = j0; j < j1; ++j) o3[j] += av3 * brow[j];
          }
        }
      }
    }
    for (; i < i1; ++i) {
      const float* __restrict arow = a + i * k;
      float* __restrict orow = out + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = arow[p];
        if (av == 0.0f) continue;
        const float* __restrict brow = b + p * n;
        for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
      }
    }
  }
}

/// Tile kernel for out[i0:i1, j0:j1] += A * B^T (A MxK, B NxK). The j loop
/// is register-blocked: kBlockJ rows of B are dotted against one A row in
/// the same sweep (kBlockJ independent accumulation chains, one pass over
/// the A row per block). Each (i, j) element accumulates its k products in
/// ascending order into its own private scalar before the single += into
/// out, so results are bitwise independent of tiling and blocking.
void gemm_nt_tile(const float* __restrict a, const float* __restrict b,
                  float* __restrict out, std::size_t k, std::size_t n, std::size_t i0,
                  std::size_t i1, std::size_t j0, std::size_t j1, bool accumulate) {
  constexpr std::size_t kBlockJ = 8;
  for (std::size_t i = i0; i < i1; ++i) {
    const float* __restrict arow = a + i * k;
    float* __restrict orow = out + i * n;
    if (!accumulate) std::fill(orow + j0, orow + j1, 0.0f);
    std::size_t j = j0;
    for (; j + kBlockJ <= j1; j += kBlockJ) {
      const float* __restrict brows[kBlockJ];
      float acc[kBlockJ];
      for (std::size_t jj = 0; jj < kBlockJ; ++jj) {
        brows[jj] = b + (j + jj) * k;
        acc[jj] = 0.0f;
      }
      for (std::size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        for (std::size_t jj = 0; jj < kBlockJ; ++jj) acc[jj] += av * brows[jj][p];
      }
      for (std::size_t jj = 0; jj < kBlockJ; ++jj) orow[j + jj] += acc[jj];
    }
    for (; j < j1; ++j) {
      const float* __restrict brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] += acc;
    }
  }
}

/// Tile kernel for out[i0:i1, j0:j1] += A^T * B (A KxM, B KxN). k stays the
/// OUTER loop (one pass over A and B rows feeds every tile row), so each
/// element accumulates ascending-k directly into out — the same order the
/// whole-matrix serial sweep uses.
void gemm_tn_tile(const float* __restrict a, const float* __restrict b,
                  float* __restrict out, std::size_t m, std::size_t k, std::size_t n,
                  std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                  bool accumulate) {
  if (!accumulate) {
    for (std::size_t i = i0; i < i1; ++i) std::fill(out + i * n + j0, out + i * n + j1, 0.0f);
  }
  for (std::size_t p = 0; p < k; ++p) {
    const float* __restrict arow = a + p * m;
    const float* __restrict brow = b + p * n;
    for (std::size_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* __restrict orow = out + i * n;
      for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Dispatch one GEMM over the fixed output-tile grid. `kernel(i0,i1,j0,j1)`
/// must fully compute that output region (including its zero-fill when not
/// accumulating). `work` = m*k*n decides the serial fast path.
template <typename Kernel>
void dispatch_tiles(std::size_t m, std::size_t n, std::size_t work, Kernel&& kernel) {
  const std::size_t tiles_m = (m + kTileM - 1) / kTileM;
  const std::size_t tiles_n = (n + kTileN - 1) / kTileN;
  const std::size_t tiles = tiles_m * tiles_n;
  const std::size_t T = parallel_slots(tiles, work);
  if (T <= 1) {
    kernel(std::size_t{0}, m, std::size_t{0}, n);
    return;
  }
  // Static schedule: slot w owns tiles {w, w+T, w+2T, ...} in ascending
  // order. Which OS thread runs a slot is irrelevant to results — slots
  // write disjoint tiles and every element's k reduction lives entirely
  // inside one slot.
  detail::gemm_pool().run_static(T, [&](std::size_t w) {
    for (std::size_t t = w; t < tiles; t += T) {
      const std::size_t ti = t / tiles_n;
      const std::size_t tj = t % tiles_n;
      const std::size_t i0 = ti * kTileM;
      const std::size_t j0 = tj * kTileN;
      kernel(i0, std::min(m, i0 + kTileM), j0, std::min(n, j0 + kTileN));
    }
  });
}

}  // namespace

void matmul(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  OBS_SPAN_SAMPLED("nn_gemm", 4);
  assert(a.cols() == b.rows());
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    assert(!accumulate);
    out = Tensor(a.rows(), b.cols());
  }
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  dispatch_tiles(m, n, m * k * n,
                 [=](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
                   gemm_nn_tile(pa, pb, po, k, n, i0, i1, j0, j1, accumulate);
                 });
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  // out[MxN] = A^T * B where A is [KxM], B is [KxN].
  OBS_SPAN_SAMPLED("nn_gemm", 4);
  assert(a.rows() == b.rows());
  const std::size_t m = a.cols(), k = a.rows(), n = b.cols();
  if (out.rows() != m || out.cols() != n) {
    assert(!accumulate);
    out = Tensor(m, n);
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  dispatch_tiles(m, n, m * k * n,
                 [=](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
                   gemm_tn_tile(pa, pb, po, m, k, n, i0, i1, j0, j1, accumulate);
                 });
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& out, bool accumulate) {
  // out[MxN] = A * B^T where A is [MxK], B is [NxK].
  OBS_SPAN_SAMPLED("nn_gemm", 4);
  assert(a.cols() == b.cols());
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (out.rows() != m || out.cols() != n) {
    assert(!accumulate);
    out = Tensor(m, n);
  }
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out.data();
  dispatch_tiles(m, n, m * k * n,
                 [=](std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1) {
                   gemm_nt_tile(pa, pb, po, k, n, i0, i1, j0, j1, accumulate);
                 });
}

void add_bias_rows(Tensor& x, const Tensor& bias) {
  assert(bias.rows() == 1 && bias.cols() == x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float* row = x.row(r);
    const float* b = bias.data();
    for (std::size_t c = 0; c < x.cols(); ++c) row[c] += b[c];
  }
}

void softmax_row(float* row, std::size_t n) {
  float mx = row[0];
  for (std::size_t c = 1; c < n; ++c) mx = std::max(mx, row[c]);
  float sum = 0.0f;
  for (std::size_t c = 0; c < n; ++c) {
    row[c] = std::exp(row[c] - mx);
    sum += row[c];
  }
  const float inv = 1.0f / sum;
  for (std::size_t c = 0; c < n; ++c) row[c] *= inv;
}

void softmax_rows(Tensor& x) {
  for (std::size_t r = 0; r < x.rows(); ++r) softmax_row(x.row(r), x.cols());
}

}  // namespace mirage::nn
