#include "nn/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "util/thread_pool.hpp"

namespace mirage::nn {

namespace {
std::atomic<std::size_t> g_num_threads{0};  // 0 = hardware_concurrency
thread_local std::size_t t_override = 0;
constexpr std::size_t kParallelMinWork = 64 * 64 * 64;  // multiply-adds
}  // namespace

void set_num_threads(std::size_t n) {
  g_num_threads.store(n, std::memory_order_relaxed);
}

std::size_t num_threads() {
  std::size_t n = t_override != 0 ? t_override : g_num_threads.load(std::memory_order_relaxed);
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return n;
}

ScopedNumThreads::ScopedNumThreads(std::size_t n) : prev_(t_override) { t_override = n; }

ScopedNumThreads::~ScopedNumThreads() { t_override = prev_; }

std::size_t parallel_slots(std::size_t units, std::size_t work) {
  if (units <= 1 || work < kParallelMinWork) return 1;
  return std::min(num_threads(), units);
}

namespace detail {

util::ThreadPool& gemm_pool() {
  static util::ThreadPool pool;  // hardware-sized, persistent workers
  return pool;
}

}  // namespace detail

}  // namespace mirage::nn
