#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <ctime>
#include <map>
#include <stdexcept>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// ------------------------------------------------------------------ OpCounts

namespace {
const char* op_name(int op) {
  static const char* names[] = {"observe", "decide", "open", "close", "episode", "train_step"};
  return names[op];
}
}  // namespace

std::uint64_t OpCounts::total_attempted() const {
  std::uint64_t n = 0;
  for (auto a : attempted) n += a;
  return n;
}

std::uint64_t OpCounts::total_failed() const {
  std::uint64_t n = 0;
  for (auto f : failed) n += f;
  return n;
}

void OpCounts::print() const {
  std::printf("%-12s %12s %8s\n", "operation", "attempted", "failed");
  for (int op = 0; op < static_cast<int>(Op::kCount); ++op) {
    if (attempted[op] == 0) continue;
    std::printf("%-12s %12llu %8llu\n", op_name(op),
                static_cast<unsigned long long>(attempted[op]),
                static_cast<unsigned long long>(failed[op]));
  }
}

// -------------------------------------------------------------------- Tracer

Tracer::Tracer(bool on) : on_(on), origin_(now_s()) {
  if (on_) spans_.reserve(1 << 20);
}

int Tracer::begin(const char* name, std::uint64_t id, int parent) {
  if (!on_) return -1;
  spans_.push_back({name, id, parent, now_s(), 0.0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end = now_s();
}

void Tracer::record(const char* name, std::uint64_t id, int parent, double start, double end) {
  if (on_) spans_.push_back({name, id, parent, start, end});
}

std::vector<double> Tracer::self_times() const {
  // Children of one span never overlap (a Tracer lives on one thread), so
  // the part of a span its children cover is the sum of their durations.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end - spans_[i].start;
  for (const auto& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  }
  return self;
}

Tracer::Summary Tracer::summary(const std::string& name) const {
  Summary out;
  const auto self = self_times();
  std::vector<double> durations;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    const double d = spans_[i].end - spans_[i].start;
    durations.push_back(d);
    out.total_s += d;
    out.self_s += self[i];
  }
  out.count = durations.size();
  out.p50_s = median(durations);
  return out;
}

void Tracer::print_table() const {
  std::map<std::string, bool> names;
  for (const auto& s : spans_) names[s.name] = true;
  std::printf("%-16s %9s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "p50_us");
  for (const auto& [name, unused] : names) {
    const auto s = summary(name);
    std::printf("%-16s %9zu %12.3f %12.3f %12.3f\n", name.c_str(), s.count, 1e3 * s.total_s,
                1e3 * s.self_s, 1e6 * s.p50_s);
  }
}

bool Tracer::write_csv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "name,id,parent,start_s,end_s\n");
  for (const auto& s : spans_) {
    std::fprintf(f, "%s,%llu,%d,%.9f,%.9f\n", s.name, static_cast<unsigned long long>(s.id),
                 s.parent, s.start - origin_, s.end - origin_);
  }
  return std::fclose(f) == 0;
}

double report_setup(const std::vector<double>& times) {
  std::printf("setup:");
  for (double t : times) std::printf(" %.4f s", t);
  std::printf("\n");
  return median(times);
}

// -------------------------------------------------------------------- Result

void Result::check(bool ok, const std::string& what) {
  std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  if (!ok) correct = false;
}

namespace {
template <std::size_t N>
const char* unit_of(const MetricSpec (&specs)[N], const std::string& name) {
  for (const auto& s : specs) {
    if (name == s.name) return s.unit;
  }
  throw std::logic_error("metric " + name + " is not in the benchmark's metric list");
}
}  // namespace

void Result::e2e(const std::string& name, double value) {
  end_to_end.push_back({name, value, unit_of(kEndToEnd, name)});
}

void Result::layer(const std::string& name, double value) {
  per_layer.push_back({name, value, unit_of(kPerLayer, name)});
}

}  // namespace perfbench
