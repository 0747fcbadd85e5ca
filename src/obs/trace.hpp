// Structured event tracing (ISSUE 6 tentpole): ring-buffered trace events
// with Chrome trace-event (chrome://tracing / Perfetto) and CSV exporters.
//
// Two timestamp domains, never mixed in one ring:
//
//   sim-time    TraceRing attached to one Simulator (one per sweep cell).
//               Timestamps are deterministic simulated seconds, so the
//               exported trace is a pure function of the scenario spec —
//               bitwise identical across thread counts, and recording it
//               cannot perturb results (the ring is write-only).
//   wall-clock  the process-wide profiling ring (global_trace()) fed by
//               OBS_SPAN scopes and serve-side events (batch formation,
//               checkpoint hot-reload).
//
// Rings are fixed-capacity and overwrite the oldest events when full (the
// recorded total keeps counting, so exporters report drops). record() is
// an atomic slot claim plus a struct store, bracketed by an in-flight
// writer count that closing the recording gate waits out — no locks, no
// heap, so instrumented steady-state loops stay allocation-free.
//
// Event names are `const char*` and must point at static storage
// (literals); the ring stores the pointer, not a copy.
//
// Chrome JSON mapping: one sim second (or wall microsecond) maps to one
// viewer microsecond — a month-long scenario renders as a ~2.6s timeline.
// `pid` is the track group (sweep cell index), `tid` the track (partition
// id, or thread slot for wall rings). Jobs export as complete "X" slices
// [start, end]; point events (kills, preemptions, cluster events) as
// instants "i".
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mirage::obs {

enum class TraceEventKind : std::uint8_t {
  kJobRun,            ///< one scheduled run of a job: slice [ts, ts+dur]
  kJobKill,           ///< instant: job killed by an outage
  kJobPreempt,        ///< instant: job checkpointed/requeued
  kJobRequeue,        ///< instant: preempted job re-entered the queue
  kClusterEvent,      ///< instant: capacity event applied (arg0 = type)
  kCellStart,         ///< sweep-cell lifecycle begin
  kCellFinish,        ///< sweep-cell lifecycle end (dur = wall us)
  kBatchFormed,       ///< serve: one engine tick (arg0 = batch size, arg1 = tick id)
  kCheckpointReload,  ///< serve: registry loaded/hot-swapped a model
  kSpan,              ///< OBS_SPAN profiling scope: slice [ts, ts+dur]
  kRequestBegin,      ///< serve: request minted (arg0 = request id, arg1 = session id)
  kRequestEnqueue,    ///< serve: request entered the engine ring (arg0 = id, arg1 = slot)
  kRequestComplete,   ///< serve: journey slice [enqueue, served] (arg0 = id, arg1 = tick id)
};

const char* trace_event_kind_name(TraceEventKind k);

struct TraceEvent {
  std::int64_t ts = 0;    ///< sim seconds or wall microseconds
  std::int64_t dur = 0;   ///< slice duration (same unit); 0 for instants
  std::int64_t arg0 = 0;  ///< kind-specific (job id, batch size, ...)
  std::int64_t arg1 = 0;  ///< kind-specific (nodes, version, ...)
  const char* name = "";  ///< static string (slice label)
  std::uint32_t tid = 0;  ///< track: partition id / thread slot
  TraceEventKind kind = TraceEventKind::kSpan;

  bool is_slice() const {
    return kind == TraceEventKind::kJobRun || kind == TraceEventKind::kSpan ||
           kind == TraceEventKind::kCellStart || kind == TraceEventKind::kCellFinish ||
           kind == TraceEventKind::kRequestComplete;
  }
};

/// Fixed-capacity multi-writer ring. record() never allocates; the buffer
/// is sized at construction (or attach time) and old events are
/// overwritten once `capacity` is exceeded. Overwrite-oldest has one
/// unsynchronized case: a writer stalled inside record() while the others
/// lap the whole ring shares its slot with a concurrent store.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 1 << 14);

  /// Drop-in recording gate: rings can be individually disabled (a
  /// disabled ring records nothing; hooks stay wired). Closing the gate
  /// waits for every record() already past it to finish its store, so
  /// once set_recording(false) returns no slot is mid-write and
  /// snapshot() is safe against the writers.
  void set_recording(bool on);
  bool recording() const { return recording_.load(std::memory_order_relaxed); }

  void record(const TraceEvent& ev) {
    if (!recording()) return;
    // Announce the write, then re-check the gate. Both sides are seq_cst,
    // so either this writer sees the gate closed or the closer sees it in
    // flight and waits for the release below.
    writers_.fetch_add(1, std::memory_order_seq_cst);
    if (recording_.load(std::memory_order_seq_cst)) {
      const std::uint64_t slot = cursor_.fetch_add(1, std::memory_order_relaxed);
      events_[static_cast<std::size_t>(slot % events_.size())] = ev;
    }
    writers_.fetch_sub(1, std::memory_order_release);
  }

  std::size_t capacity() const { return events_.size(); }
  /// Total events recorded since the last clear (may exceed capacity).
  std::uint64_t recorded() const { return cursor_.load(std::memory_order_relaxed); }
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > events_.size() ? n - events_.size() : 0;
  }

  /// Events in recording order (oldest surviving first). Not safe against
  /// concurrent record(); snapshot with recording off or after the
  /// workload quiesces.
  std::vector<TraceEvent> snapshot() const;

  void clear() { cursor_.store(0, std::memory_order_relaxed); }

 private:
  std::vector<TraceEvent> events_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint32_t> writers_{0};  ///< record() calls past the gate
  std::atomic<bool> recording_{true};
};

/// Process-wide wall-clock profiling ring (OBS_SPAN + serve events).
/// Recording obeys obs::enabled() at the hook sites.
TraceRing& global_trace();

/// One named export track: a ring plus the label and pid its events render
/// under ("cell 3: a100/u0.95/d8/outage" with pid=3).
struct TraceTrack {
  std::string label;
  std::uint32_t pid = 0;
  const TraceRing* ring = nullptr;
};

/// Chrome trace-event JSON ({"traceEvents":[...],"displayTimeUnit":"ms"}).
/// Deterministic: output depends only on ring contents and track order.
std::string to_chrome_json(const std::vector<TraceTrack>& tracks);

/// Flat CSV (track,pid,tid,kind,name,ts,dur,arg0,arg1), same ordering.
std::string to_trace_csv(const std::vector<TraceTrack>& tracks);

/// Minimal structural validation of an exported Chrome trace: JSON parses
/// (objects/arrays/strings/numbers/bools/null), top level is an object
/// with a "traceEvents" array, and every event object carries the
/// required "name"/"ph"/"ts"/"pid"/"tid" keys. False + diagnostic
/// otherwise. Used by tests and the --trace smoke in CI.
bool validate_chrome_trace(const std::string& json, std::string* error = nullptr);

}  // namespace mirage::obs
