// Batched decision engine: coalesces per-session "submit now or wait?"
// requests into one [B, k*(m+1)] tensor and runs a single batched
// Foundation forward per tick. Every current offline caller serves at
// B=1 (two rows per Q-pair); amortizing layer temporaries, GEMM setup and
// the model lock over whole batches is the headline throughput win
// (measured by bench_serve_throughput).
//
// The request queue is a BOUNDED preallocated ring (EngineConfig::
// max_queue): when the inference engine saturates, new submissions are
// rejected with BackpressureRejected and counted in EngineStats::rejected
// instead of growing the heap without limit — admission control, not an
// allocation storm.
//
// submit_pooled() is the one way into the ring. The caller's observation
// buffer is swapped into a ring slot (capacities circulate, nothing is
// freed) and the request borrows a recycled CompletionToken from the
// engine's token pool; the returned AsyncDecision waits on that token.
// Blocking callers simply get() it at once. Either way a steady-state
// decision performs ZERO heap allocations end to end (audited by
// bench_serve_soak with a stub model).
//
// The tick's forward runs inline on the engine thread under
// nn::ScopedNumThreads; the GEMM inside it fans out on its own pool.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/metrics.hpp"
#include "serve/model_registry.hpp"
#include "util/stats.hpp"

namespace mirage::obs {
class Counter;
class Histogram;
}  // namespace mirage::obs

namespace mirage::serve {

/// Thrown by the throwing decide paths when the bounded request queue is
/// full — the backpressure signal callers retry or shed load on.
struct BackpressureRejected : std::runtime_error {
  BackpressureRejected()
      : std::runtime_error("BatchedInferenceEngine: queue full, request rejected "
                           "(backpressure)") {}
};

struct EngineConfig {
  std::size_t max_batch = 64;
  /// After the first queued request, wait up to this long for more to
  /// coalesce before running the tick (0 = serve whatever is queued).
  std::chrono::microseconds coalesce_wait{200};
  /// Bounded request queue: submissions past this depth are rejected with
  /// BackpressureRejected (admission control when the engine saturates).
  /// The ring is preallocated, so queueing never allocates. Clamped >= 1.
  std::size_t max_queue = 8192;
  /// GEMM threads for the tick's batched forward (nn::ScopedNumThreads
  /// around infer_into). 0 = inherit the process-wide nn::set_num_threads
  /// default. Decisions are bitwise identical for every value — the
  /// parallel-GEMM determinism contract — so this trades latency against
  /// interference with co-resident training work, never results.
  std::size_t nn_threads = 0;
};

struct EngineStats {
  std::uint64_t requests = 0;      ///< fulfilled (including failed) requests
  std::uint64_t ticks = 0;         ///< batched forwards executed
  std::uint64_t rejected = 0;      ///< submissions refused by backpressure
  double mean_batch = 0.0;
  std::size_t max_batch = 0;
  double busy_seconds = 0.0;       ///< wall time spent inside forwards
  LatencySnapshot latency;         ///< enqueue -> served (served only)
};

namespace detail {
/// Recycled completion state for one in-flight request: lives in the
/// engine's TokenPool and circulates instead of being heap-allocated per
/// call. The completion callback is a raw function pointer plus context
/// slots — assigning a std::function here could allocate, which is
/// exactly what this path exists to avoid.
struct CompletionToken {
  std::mutex mutex;
  std::condition_variable cv;
  bool done = false;
  Decision decision;
  std::exception_ptr error;
  void (*on_complete)(void*, void*, void*, std::uint64_t, const Decision&) = nullptr;
  void* ctx_a = nullptr;
  void* ctx_b = nullptr;
  void* ctx_c = nullptr;
  std::uint64_t ctx_id = 0;
  /// Keeps the callback's referents alive while the request is in flight
  /// (a shared_ptr copy is a refcount bump, not an allocation).
  std::shared_ptr<void> keepalive;
};

/// Freelist of CompletionTokens. Tokens are created on demand (cold
/// start) and recycled forever after; `created()` is the audit hook — in
/// a warmed steady state it must stop growing.
class TokenPool {
 public:
  ~TokenPool();
  TokenPool() = default;
  TokenPool(const TokenPool&) = delete;
  TokenPool& operator=(const TokenPool&) = delete;

  CompletionToken* acquire();
  void release(CompletionToken* token);
  std::size_t created() const;

 private:
  mutable std::mutex mutex_;
  std::vector<CompletionToken*> free_;
  std::size_t created_ = 0;
};
}  // namespace detail

/// Move-only handle to one in-flight decision. get() blocks until the
/// batch containing the request runs, rethrows the batch's failure, and
/// returns the token to the pool; an abandoned (destroyed un-got) handle
/// waits for completion first, so a token is never recycled while the
/// engine might still touch it. Must not outlive the engine it came from.
class AsyncDecision {
 public:
  AsyncDecision() = default;
  AsyncDecision(AsyncDecision&& other) noexcept;
  AsyncDecision& operator=(AsyncDecision&& other) noexcept;
  ~AsyncDecision();
  AsyncDecision(const AsyncDecision&) = delete;
  AsyncDecision& operator=(const AsyncDecision&) = delete;

  bool valid() const { return token_ != nullptr; }
  /// Wait, rethrow on failure, release the token. Single-shot.
  Decision get();

 private:
  friend class BatchedInferenceEngine;
  AsyncDecision(detail::CompletionToken* token, detail::TokenPool* pool)
      : token_(token), pool_(pool) {}
  void abandon();

  detail::CompletionToken* token_ = nullptr;
  detail::TokenPool* pool_ = nullptr;
};

class BatchedInferenceEngine {
 public:
  /// Resolve the serving model once per tick — a hot-reloaded registry
  /// entry is picked up at the next tick boundary while in-flight batches
  /// keep their snapshot.
  using ModelResolver = std::function<ModelSnapshot()>;

  BatchedInferenceEngine(ModelResolver resolver, EngineConfig config = {});
  /// Convenience: serve one registry key. The registry must outlive the
  /// engine.
  BatchedInferenceEngine(const ModelRegistry& registry, ModelKey key, EngineConfig config = {});
  ~BatchedInferenceEngine();

  BatchedInferenceEngine(const BatchedInferenceEngine&) = delete;
  BatchedInferenceEngine& operator=(const BatchedInferenceEngine&) = delete;

  /// Launch the engine thread (idempotent).
  void start();

  /// Outcome of a submission.
  enum class SubmitResult { kOk, kRejectedBackpressure, kDraining };

  /// Completion context for submit_pooled. `fn` runs on the engine thread
  /// for successfully served decisions only (a drained or failed request
  /// is never counted as served), before the handle resolves, with the
  /// three context pointers and id passed through; a throwing `fn` fails
  /// only its own request. `keepalive` pins whatever the pointers
  /// reference until the request resolves.
  struct PooledCompletion {
    void (*fn)(void*, void*, void*, std::uint64_t, const Decision&) = nullptr;
    void* ctx_a = nullptr;
    void* ctx_b = nullptr;
    void* ctx_c = nullptr;
    std::uint64_t ctx_id = 0;
    std::shared_ptr<void> keepalive;
  };

  /// Enqueue one observation (flattened [k*(m+1)], action channel
  /// ignored). The buffer is swapped into a ring slot — the caller gets
  /// the displaced buffer back for reuse — and `out` waits on a recycled
  /// CompletionToken. On rejection/drain the observation is handed back
  /// untouched, `out` stays invalid and the token goes straight back to
  /// the pool. A batch failure (no model, short decision vector, bad
  /// input dim) rethrows from out.get(). Nonzero `request_id` threads the
  /// caller's journey id through the ring: enqueue/complete trace events
  /// and the latency histogram's exemplar carry it.
  SubmitResult submit_pooled(std::vector<float>& observation, AsyncDecision& out,
                             PooledCompletion completion, std::uint64_t request_id = 0);
  SubmitResult submit_pooled(std::vector<float>& observation, AsyncDecision& out) {
    return submit_pooled(observation, out, PooledCompletion());
  }

  /// Runs `fn(ctx)` on the engine thread once per served batch, after
  /// every completion hook of the batch and before any of its requests
  /// resolves (the service commits the batch's journal records here, one
  /// fsync per batch). Set before start().
  void set_batch_epilogue(void (*fn)(void*), void* ctx) {
    epilogue_fn_ = fn;
    epilogue_ctx_ = ctx;
  }

  /// Completion tokens ever created (the allocation audit: flat in a
  /// warmed steady state).
  std::size_t tokens_created() const { return token_pool_.created(); }

  /// Graceful drain: reject new requests, serve everything queued, then
  /// stop the engine thread (idempotent).
  void drain();

  bool accepting() const;
  std::size_t queue_depth() const;
  EngineStats stats() const;

 private:
  /// One ring slot / in-flight request.
  struct Request {
    std::vector<float> observation;  ///< buffer owned by the slot, reused
    detail::CompletionToken* token = nullptr;
    double enqueue_seconds = 0.0;
    std::uint64_t request_id = 0;    ///< journey id (0 = untraced caller)
  };

  void run();
  void serve_batch(std::size_t take);
  /// Run one served request's completion hook (engine thread); a throw is
  /// parked in the token for resolve().
  void run_hook(Request& req, const Decision& decision);
  /// Resolve one request (engine thread): with `failure`, or else with
  /// `decision` unless its hook threw.
  void resolve(Request& req, const Decision* decision, const std::exception_ptr& failure);
  /// Reserve the next ring slot or report why not (caller holds mutex_).
  Request* reserve_slot_locked();

  ModelResolver resolver_;
  EngineConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Request> ring_;      ///< bounded queue, preallocated
  std::size_t head_ = 0;           ///< oldest queued request
  std::size_t queued_ = 0;         ///< live entries in the ring
  bool draining_ = false;
  bool started_ = false;
  std::thread worker_;
  std::atomic<std::uint64_t> rejected_{0};
  detail::TokenPool token_pool_;   ///< recycled completion tokens
  void (*epilogue_fn_)(void*) = nullptr;
  void* epilogue_ctx_ = nullptr;

  // Engine-thread tick scratch (no locks needed): extracted requests and
  // the reusable observation/decision buffers for the batched forward.
  std::uint64_t tick_seq_ = 0;                     ///< engine-thread tick id
  std::vector<Request> batch_;                     ///< metadata, <= max_batch
  std::vector<std::vector<float>> observations_;   ///< rows for infer_into
  std::vector<std::vector<float>> row_pool_;       ///< spare row capacities
  std::vector<Decision> decisions_;

  // Stats (guarded by stats_mutex_ so snapshots don't contend with the
  // request path).
  mutable std::mutex stats_mutex_;
  std::uint64_t requests_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t batch_sum_ = 0;
  std::size_t batch_max_ = 0;
  double busy_seconds_ = 0.0;
  LatencyRecorder latency_;
};

/// Process-wide decision-latency histogram
/// ("mirage_serve_decision_latency_seconds"): exponential buckets with
/// EXEMPLARS — each bucket remembers the last request id that landed in
/// it, so a p99.9 reading links back to one concrete journey in the trace
/// ring. Every engine records served decisions here; the serve SLO
/// engine's latency objective reads it.
obs::Histogram& decision_latency_histogram();

/// Process-wide served-decision counter ("mirage_serve_engine_served_total"),
/// the "good" leg of the reject-rate SLO (its "bad" leg is
/// "mirage_serve_engine_rejected_total").
obs::Counter& engine_served_counter();

/// The rejected-submission counter behind "mirage_serve_engine_rejected_total".
obs::Counter& engine_rejected_counter();

}  // namespace mirage::serve
