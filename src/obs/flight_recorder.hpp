// Flight recorder (ISSUE 8 tentpole): dumps a postmortem diagnostic
// bundle — the last-N wall-clock trace events as validated Chrome JSON,
// the full metrics snapshot, and any registered provider documents
// (health verdicts, serve metrics) — to a directory, on demand, when an
// SLO starts firing, or on a fatal signal.
//
// Bundle layout (one directory per dump, pruned to max_bundles):
//
//   <directory>/bundle_<seq>_<reason>/
//     MANIFEST.txt     reason, sequence, wall time, file list
//     trace.json       last max_events of obs::global_trace(), Chrome
//                      trace-event format (passes validate_chrome_trace)
//     metrics.prom     obs::registry().to_prometheus() snapshot
//     build.txt        compiler / platform / build-mode provenance
//     <provider files> e.g. health.txt, serve_metrics.prom
//
// Concurrency: dump() is serialized by a mutex and PAUSES the global
// trace ring's recording while it snapshots: set_recording(false) gates
// new events and waits for writers already inside record() to finish, so
// a dump under live serve traffic never reads a slot mid-write.
//
// Signal path: install_signal_handlers() hooks SIGSEGV/SIGBUS/SIGABRT/
// SIGFPE/SIGILL to dump a "signal_<n>" bundle and then re-raise with the
// default disposition so the crash still crashes. Dumping from a signal
// handler is NOT async-signal-safe — it is a deliberate best-effort
// last gasp on a path that was about to die anyway. Tests exercise the
// dump body directly via detail::dump_on_fatal_signal() without raising.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

namespace mirage::obs {

struct FlightRecorderConfig {
  std::string directory = "flight";  ///< bundles land under this directory
  std::size_t max_events = 4096;     ///< last-N trace events per bundle
  std::size_t max_bundles = 8;       ///< oldest bundles pruned past this
};

class FlightRecorder {
 public:
  /// Produces one bundle file's contents on demand at dump() time.
  using Provider = std::function<std::string()>;

  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  void configure(FlightRecorderConfig config);
  FlightRecorderConfig config() const;

  /// Attach/detach a named document source (e.g. the serve tier registers
  /// "health.txt" -> health_text()). A provider that throws contributes
  /// an error note instead of killing the dump.
  void register_provider(const std::string& filename, Provider provider);
  void unregister_provider(const std::string& filename);

  /// Write one bundle now; returns its directory path ("" when the
  /// filesystem refused). `reason` is sanitized into the directory name.
  std::string dump(const std::string& reason);

  std::uint64_t dumps() const;

  /// Validate a dumped bundle: MANIFEST.txt present, trace.json passes
  /// validate_chrome_trace, metrics.prom passes
  /// lint_prometheus_exposition, build.txt non-empty.
  static bool validate_bundle(const std::string& bundle_dir, std::string* error = nullptr);

  /// Hook fatal signals to dump a bundle and re-raise (idempotent).
  void install_signal_handlers();

 private:
  void prune_locked();

  mutable std::mutex mutex_;
  FlightRecorderConfig config_;
  std::map<std::string, Provider> providers_;
  std::uint64_t seq_ = 0;
  std::uint64_t dumps_ = 0;
  bool signals_installed_ = false;
};

/// Process-wide recorder (the SLO fire hook and signal handlers use it).
FlightRecorder& flight_recorder();

namespace detail {
/// Body of the fatal-signal hook: pause tracing, dump "signal_<n>".
/// Exposed so tests can exercise the crash dump without crashing.
void dump_on_fatal_signal(int sig);
}  // namespace detail

}  // namespace mirage::obs
