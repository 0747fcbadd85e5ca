// Thread-count knob for the NN tier's parallel GEMM (nn/tensor.cpp).
//
// The GEMM kernels partition the OUTPUT matrix into a fixed 2-D tile grid
// (grid depends only on the matrix shape, never on the thread count) and
// assign tiles to worker slots round-robin by tile index. Each slot owns
// disjoint tiles and accumulates every element's k-products in the same
// strictly-ascending order as the serial kernel, so results are bitwise
// identical for EVERY thread count — the repo-wide parallel == serial
// determinism contract, extended down to tensors (gated by the
// ParallelGemm suite in tests/nn_test.cpp and by bench_nn_micro).
//
// Resolution order for the effective count: the calling thread's
// ScopedNumThreads override (when nonzero), else the process-wide
// set_num_threads() default, else hardware_concurrency. Components that
// own their threading context scope an override instead of mutating the
// global: the serve engine pins its batched forward via
// EngineConfig::nn_threads, and the lab runner gives parallel cell sweeps
// 1 GEMM thread each (the cells already saturate the cores) while serial
// runs fan each forward out across the machine.
#pragma once

#include <cstddef>

namespace mirage::util {
class ThreadPool;
}

namespace mirage::nn {

/// Process-wide default GEMM thread count. 0 = hardware_concurrency.
void set_num_threads(std::size_t n);

/// Effective GEMM thread count for the CALLING thread (>= 1): the active
/// ScopedNumThreads override when set, else the process-wide default.
std::size_t num_threads();

/// RAII thread-local override of the GEMM thread count; 0 restores
/// "defer to the process-wide default". Nests (the previous override is
/// reinstated on destruction). Cheap enough for per-batch scoping.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(std::size_t n);
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  std::size_t prev_;
};

namespace detail {
/// Persistent hardware-sized worker pool dedicated to GEMM tiles. A pool
/// of its own (not util::ThreadPool::global()) so a GEMM issued FROM a
/// global-pool worker — a lab cell, say — can never deadlock waiting for
/// slots behind its own caller.
util::ThreadPool& gemm_pool();
}  // namespace detail

}  // namespace mirage::nn
