// Thread-count knob and work floor for the NN tier's parallel kernels.
//
// One dedicated pool (detail::gemm_pool) runs three kinds of work: GEMM
// output tiles (nn/tensor.cpp), the (item, head) pairs of the attention
// core (nn/attention.cpp) and contiguous chunks of GELU's elementwise
// loop (nn/layers.cpp). Each splits its output into independent units
// whose boundaries depend only on the shape, never on the thread count,
// and assigns them to worker slots round-robin (slot w owns units w,
// w+T, w+2T, ...). Every unit computes each of its output elements with
// the SAME per-element arithmetic order as the serial kernel, so results
// are bitwise identical for EVERY thread count — the repo-wide
// parallel == serial determinism contract, extended down to tensors
// (gated by the ParallelGemm and ServingInference suites in
// tests/nn_test.cpp and by bench_nn_micro).
//
// No nested dispatch: a slot runs on a pool worker and must never call
// back into the pool (no matmul, no GELU forward inside a slot). The
// pool's workers would wait on work queued behind their own slots.
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

/// Worker slots for a kernel of `units` independent output units costing
/// `work` multiply-adds in total: 1 — run serially on the caller — with a
/// single unit, below the work floor (~a 64^3 GEMM: dispatch, futures
/// plus wakeups, costs microseconds) or when the calling thread resolves
/// to one thread; else min(num_threads(), units).
std::size_t parallel_slots(std::size_t units, std::size_t work);

namespace detail {
/// Persistent hardware-sized worker pool dedicated to the parallel
/// kernels above (GEMM tiles, attention pairs, GELU chunks). A pool
/// of its own (not util::ThreadPool::global()) so a GEMM issued FROM a
/// global-pool worker — a lab cell, say — can never deadlock waiting for
/// slots behind its own caller.
util::ThreadPool& gemm_pool();
}  // namespace detail

}  // namespace mirage::nn
