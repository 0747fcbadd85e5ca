#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <sstream>

#include "util/strconv.hpp"

namespace mirage::obs {

namespace {
std::atomic<bool> g_enabled{true};
std::atomic<std::size_t> g_next_shard{0};
}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

namespace detail {
std::size_t thread_shard() {
  thread_local const std::size_t slot =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return slot;
}
}  // namespace detail

std::uint64_t Gauge::to_bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

double Gauge::from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

namespace {

/// Exponential bucket index for a duration in seconds: bucket 0 is < 1us,
/// bucket i in [2^(i-1), 2^i) us, last bucket overflow. Pure integer math
/// after the seconds->us conversion.
std::size_t bucket_index(double seconds) {
  if (!(seconds > 0.0)) return 0;
  const double us = seconds * 1e6;
  if (us < 1.0) return 0;
  const auto n = static_cast<std::uint64_t>(us);
  const std::size_t log2 = 63 - static_cast<std::size_t>(__builtin_clzll(n | 1));
  return std::min(log2 + 1, Histogram::kBuckets - 1);
}

}  // namespace

void Histogram::record(double seconds) {
  auto& shard = shards_[detail::thread_shard()];
  shard.counts[bucket_index(seconds)].fetch_add(1, std::memory_order_relaxed);
  shard.n.fetch_add(1, std::memory_order_relaxed);
  const double us = seconds > 0.0 ? seconds * 1e6 : 0.0;
  shard.sum_us.fetch_add(static_cast<std::uint64_t>(us), std::memory_order_relaxed);
}

void Histogram::record(double seconds, std::uint64_t exemplar_id) {
  record(seconds);
  // Last-writer-wins, relaxed, unsharded: the three stores are not atomic
  // as a group, so a concurrent reader can see a torn (id, value) pair —
  // fine for a diagnostic pointer, and it keeps this path allocation-free
  // and contention-cheap inside the serve decide loop.
  auto& slot = exemplars_[bucket_index(seconds)];
  std::uint64_t bits;
  std::memcpy(&bits, &seconds, sizeof(bits));
  slot.id.store(exemplar_id, std::memory_order_relaxed);
  slot.value_bits.store(bits, std::memory_order_relaxed);
  slot.stamp.store(1, std::memory_order_relaxed);
}

Histogram::Exemplar Histogram::exemplar(std::size_t i) const {
  Exemplar e;
  if (i >= kBuckets) return e;
  const auto& slot = exemplars_[i];
  if (slot.stamp.load(std::memory_order_relaxed) == 0) return e;
  e.id = slot.id.load(std::memory_order_relaxed);
  const std::uint64_t bits = slot.value_bits.load(std::memory_order_relaxed);
  std::memcpy(&e.seconds, &bits, sizeof(e.seconds));
  e.valid = true;
  return e;
}

Histogram::Exemplar Histogram::exemplar_for_percentile(double q) const {
  const std::size_t target = percentile_bucket(q).bucket;
  // Exact bucket first, then nearest stamped bucket below (a slightly
  // faster real request), then above (a slightly slower one).
  Exemplar e = exemplar(target);
  if (e.valid) return e;
  for (std::size_t i = target; i-- > 0;) {
    e = exemplar(i);
    if (e.valid) return e;
  }
  for (std::size_t i = target + 1; i < kBuckets; ++i) {
    e = exemplar(i);
    if (e.valid) return e;
  }
  return e;
}

std::uint64_t Histogram::count() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s.n.load(std::memory_order_relaxed);
  return n;
}

double Histogram::sum() const {
  std::uint64_t us = 0;
  for (const auto& s : shards_) us += s.sum_us.load(std::memory_order_relaxed);
  return static_cast<double>(us) * 1e-6;
}

std::uint64_t Histogram::bucket(std::size_t i) const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s.counts[i].load(std::memory_order_relaxed);
  return n;
}

double Histogram::bucket_upper_seconds(std::size_t i) {
  if (i + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return static_cast<double>(1ull << i) * 1e-6;  // bucket i upper bound: 2^i us
}

Histogram::RankPosition Histogram::percentile_bucket(double q) const {
  RankPosition pos;
  pos.count = count();
  if (pos.count == 0) return pos;
  pos.rank = static_cast<std::uint64_t>(
      std::ceil(std::clamp(q, 0.0, 100.0) / 100.0 * static_cast<double>(pos.count)));
  const std::uint64_t target = std::max<std::uint64_t>(pos.rank, 1);
  for (; pos.bucket < kBuckets; ++pos.bucket) {
    pos.in_bucket = bucket(pos.bucket);
    if (pos.below + pos.in_bucket >= target) return pos;
    pos.below += pos.in_bucket;
  }
  // A record() racing this read bumped count() before its bucket: the rank
  // lies past every bucket read, so report the overflow bucket.
  pos.bucket = kBuckets - 1;
  pos.in_bucket = 0;
  return pos;
}

double Histogram::percentile(double q) const {
  const RankPosition pos = percentile_bucket(q);
  if (pos.count == 0) return 0.0;
  // Interpolate within the bucket [lower, upper).
  const std::size_t i = pos.bucket;
  const double lower = i == 0 ? 0.0 : bucket_upper_seconds(i - 1);
  const double upper = i + 1 >= kBuckets ? lower * 2.0 : bucket_upper_seconds(i);
  const double frac = pos.in_bucket ? static_cast<double>(pos.rank - pos.below) /
                                          static_cast<double>(pos.in_bucket)
                                    : 1.0;
  return lower + (upper - lower) * frac;
}

double Histogram::percentile_upper_seconds(double q) const {
  const RankPosition pos = percentile_bucket(q);
  return pos.count == 0 ? 0.0 : bucket_upper_seconds(pos.bucket);
}

void Histogram::reset() {
  for (auto& s : shards_) {
    for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
    s.n.store(0, std::memory_order_relaxed);
    s.sum_us.store(0, std::memory_order_relaxed);
  }
  for (auto& e : exemplars_) {
    e.stamp.store(0, std::memory_order_relaxed);
    e.id.store(0, std::memory_order_relaxed);
    e.value_bits.store(0, std::memory_order_relaxed);
  }
}

// -------------------------------------------------------------- registry

Counter* MetricsRegistry::counter(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& e : entries_) {
    if (e.name == name && e.kind == Kind::kCounter) return e.counter;
  }
  counters_.emplace_back();
  entries_.push_back(Entry{name, help, Kind::kCounter, &counters_.back(), nullptr, nullptr});
  return &counters_.back();
}

Gauge* MetricsRegistry::gauge(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& e : entries_) {
    if (e.name == name && e.kind == Kind::kGauge) return e.gauge;
  }
  gauges_.emplace_back();
  entries_.push_back(Entry{name, help, Kind::kGauge, nullptr, &gauges_.back(), nullptr});
  return &gauges_.back();
}

Histogram* MetricsRegistry::histogram(const std::string& name, const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& e : entries_) {
    if (e.name == name && e.kind == Kind::kHistogram) return e.histogram;
  }
  histograms_.emplace_back();
  entries_.push_back(Entry{name, help, Kind::kHistogram, nullptr, nullptr, &histograms_.back()});
  return &histograms_.back();
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  for (const auto& e : entries_) {
    if (!e.help.empty()) out << "# HELP " << e.name << ' ' << e.help << '\n';
    switch (e.kind) {
      case Kind::kCounter:
        out << "# TYPE " << e.name << " counter\n";
        out << e.name << ' ' << e.counter->value() << '\n';
        break;
      case Kind::kGauge:
        out << "# TYPE " << e.name << " gauge\n";
        out << e.name << ' ' << util::format_double_exact(e.gauge->value()) << '\n';
        break;
      case Kind::kHistogram: {
        out << "# TYPE " << e.name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          cumulative += e.histogram->bucket(i);
          const double upper = Histogram::bucket_upper_seconds(i);
          out << e.name << "_bucket{le=\"";
          if (std::isinf(upper)) {
            out << "+Inf";
          } else {
            out << util::format_double_exact(upper);
          }
          out << "\"} " << cumulative;
          // OpenMetrics-style exemplar: ties this latency bucket back to
          // one concrete trace/request id recorded via record(s, id).
          const auto ex = e.histogram->exemplar(i);
          if (ex.valid) {
            out << " # {trace_id=\"" << ex.id << "\"} "
                << util::format_double_exact(ex.seconds);
          }
          out << '\n';
        }
        // _count is the +Inf bucket just written, not a second read of the
        // live histogram: a record() landing between the two reads would
        // otherwise expose a count that disagrees with the buckets.
        out << e.name << "_count " << cumulative << '\n';
        out << e.name << "_sum " << util::format_double_exact(e.histogram->sum()) << '\n';
        break;
      }
    }
  }
  return out.str();
}

void MetricsRegistry::reset_all() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& c : counters_) c.reset();
  for (auto& g : gauges_) g.set(0.0);
  for (auto& h : histograms_) h.reset();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

MetricsRegistry& registry() {
  static MetricsRegistry instance;
  return instance;
}

// ------------------------------------------------- exposition lint

namespace {

/// One parsed sample line: name, flattened label string, labels of
/// interest (le / quantile), and the value.
struct PromSample {
  std::string name;
  std::string labels;   // canonical "k=v,k=v" for duplicate detection
  double le = 0.0;
  bool has_le = false;
  bool le_inf = false;
  double quantile = 0.0;
  bool has_quantile = false;
  double value = 0.0;
};

bool prom_name_ok(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
  }
  return true;
}

/// Parses `{k="v",...}` starting at s[pos] == '{'; advances pos past '}'.
bool parse_prom_labels(const std::string& s, std::size_t& pos, PromSample* out,
                       std::string* why) {
  ++pos;  // '{'
  bool first = true;
  for (;;) {
    if (pos >= s.size()) { *why = "unterminated label set"; return false; }
    if (s[pos] == '}') { ++pos; return true; }
    if (!first) {
      if (s[pos] != ',') { *why = "expected ',' between labels"; return false; }
      ++pos;
    }
    first = false;
    std::size_t name_start = pos;
    while (pos < s.size() && s[pos] != '=') ++pos;
    const std::string label = s.substr(name_start, pos - name_start);
    if (!prom_name_ok(label)) { *why = "bad label name '" + label + "'"; return false; }
    if (pos >= s.size() || s[pos] != '=') { *why = "expected '=' after label name"; return false; }
    ++pos;
    if (pos >= s.size() || s[pos] != '"') { *why = "label value must be quoted"; return false; }
    ++pos;
    std::string value;
    for (;;) {
      if (pos >= s.size()) { *why = "unterminated label value"; return false; }
      const char c = s[pos++];
      if (c == '"') break;
      if (c == '\n') { *why = "raw newline in label value"; return false; }
      if (c == '\\') {
        if (pos >= s.size() || (s[pos] != '\\' && s[pos] != '"' && s[pos] != 'n')) {
          *why = "bad escape in label value (only \\\\ \\\" \\n allowed)";
          return false;
        }
        value += s[pos++];
        continue;
      }
      value += c;
    }
    if (out) {
      if (!out->labels.empty()) out->labels += ',';
      out->labels += label + "=" + value;
      if (label == "le") {
        out->has_le = true;
        if (value == "+Inf") {
          out->le_inf = true;
        } else {
          char* end = nullptr;
          out->le = std::strtod(value.c_str(), &end);
          if (!end || *end != '\0') { *why = "le=\"" + value + "\" is not a number"; return false; }
        }
      } else if (label == "quantile") {
        out->has_quantile = true;
        char* end = nullptr;
        out->quantile = std::strtod(value.c_str(), &end);
        if (!end || *end != '\0' || out->quantile < 0.0 || out->quantile > 1.0) {
          *why = "quantile=\"" + value + "\" is not in [0,1]";
          return false;
        }
      }
    }
  }
}

bool parse_prom_value(const std::string& s, std::size_t& pos, double* out, std::string* why) {
  while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\t')) ++pos;
  const std::size_t start = pos;
  while (pos < s.size() && s[pos] != ' ' && s[pos] != '\t') ++pos;
  const std::string token = s.substr(start, pos - start);
  if (token.empty()) { *why = "missing value"; return false; }
  if (token == "+Inf" || token == "Inf") { *out = std::numeric_limits<double>::infinity(); return true; }
  if (token == "-Inf") { *out = -std::numeric_limits<double>::infinity(); return true; }
  if (token == "NaN") { *out = std::numeric_limits<double>::quiet_NaN(); return true; }
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  if (!end || *end != '\0') { *why = "bad value '" + token + "'"; return false; }
  return true;
}

/// Per-family accumulated lint state.
struct PromFamily {
  std::string type;
  bool has_help = false;
  bool has_samples = false;
  // histogram state
  bool saw_inf_bucket = false;
  bool saw_count = false, saw_sum = false;
  double last_le = -std::numeric_limits<double>::infinity();
  double last_bucket_value = 0.0;
  double inf_bucket_value = 0.0;
  double count_value = 0.0;
  // summary state
  double last_quantile = -1.0;
  double last_quantile_value = -std::numeric_limits<double>::infinity();
};

}  // namespace

bool lint_prometheus_exposition(const std::string& text, std::string* error) {
  std::map<std::string, PromFamily> families;
  std::set<std::string> seen_series;
  std::size_t line_no = 0;
  std::size_t samples = 0;
  const auto fail = [&](const std::string& why) {
    if (error) *error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  };

  // Resolve the declared family a sample name belongs to, honoring the
  // histogram/summary child-series suffixes.
  const auto family_of = [&](const PromSample& s) -> std::pair<std::string, PromFamily*> {
    const auto direct = families.find(s.name);
    if (direct != families.end()) return {s.name, &direct->second};
    for (const char* suffix : {"_bucket", "_count", "_sum"}) {
      const std::size_t n = std::strlen(suffix);
      if (s.name.size() > n && s.name.compare(s.name.size() - n, n, suffix) == 0) {
        const std::string base = s.name.substr(0, s.name.size() - n);
        const auto it = families.find(base);
        if (it != families.end() &&
            (it->second.type == "histogram" || it->second.type == "summary")) {
          return {base, &it->second};
        }
      }
    }
    return {"", nullptr};
  };

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      std::istringstream in(line);
      std::string hash, keyword, name;
      in >> hash >> keyword >> name;
      if (keyword == "TYPE") {
        std::string type;
        in >> type;
        if (!prom_name_ok(name)) return fail("TYPE with bad metric name '" + name + "'");
        if (type != "counter" && type != "gauge" && type != "histogram" && type != "summary" &&
            type != "untyped") {
          return fail("unknown TYPE '" + type + "' for " + name);
        }
        auto& fam = families[name];
        if (!fam.type.empty()) return fail("duplicate TYPE for " + name);
        if (fam.has_samples) return fail("TYPE for " + name + " after its samples");
        fam.type = type;
      } else if (keyword == "HELP") {
        if (!prom_name_ok(name)) return fail("HELP with bad metric name '" + name + "'");
        auto& fam = families[name];
        if (fam.has_help) return fail("duplicate HELP for " + name);
        if (fam.has_samples) return fail("HELP for " + name + " after its samples");
        fam.has_help = true;
      }
      // Other comments pass through.
      continue;
    }

    // ---- sample line: name[{labels}] value [# {exemplar-labels} value]
    PromSample sample;
    std::size_t col = 0;
    while (col < line.size() && line[col] != '{' && line[col] != ' ' && line[col] != '\t') ++col;
    sample.name = line.substr(0, col);
    if (!prom_name_ok(sample.name)) return fail("bad metric name '" + sample.name + "'");
    std::string why;
    if (col < line.size() && line[col] == '{') {
      if (!parse_prom_labels(line, col, &sample, &why)) return fail(why);
    }
    if (!parse_prom_value(line, col, &sample.value, &why)) return fail(why);
    while (col < line.size() && (line[col] == ' ' || line[col] == '\t')) ++col;
    if (col < line.size()) {
      // Only an OpenMetrics exemplar may trail the value.
      if (line[col] != '#') return fail("trailing junk after value");
      ++col;
      while (col < line.size() && (line[col] == ' ' || line[col] == '\t')) ++col;
      if (col >= line.size() || line[col] != '{') return fail("exemplar must carry a label set");
      PromSample exemplar;
      if (!parse_prom_labels(line, col, &exemplar, &why)) return fail("exemplar: " + why);
      double exemplar_value = 0.0;
      if (!parse_prom_value(line, col, &exemplar_value, &why)) return fail("exemplar: " + why);
      while (col < line.size() && (line[col] == ' ' || line[col] == '\t')) ++col;
      if (col < line.size()) return fail("trailing junk after exemplar");
    }

    const auto [family_name, fam] = family_of(sample);
    if (!fam || fam->type.empty()) {
      return fail("sample '" + sample.name + "' has no preceding TYPE declaration");
    }
    fam->has_samples = true;
    ++samples;
    if (!seen_series.insert(sample.name + "{" + sample.labels + "}").second) {
      return fail("duplicate series " + sample.name + "{" + sample.labels + "}");
    }

    const bool is_bucket = sample.name == family_name + "_bucket";
    const bool is_count = sample.name == family_name + "_count";
    const bool is_sum = sample.name == family_name + "_sum";
    if (fam->type == "counter") {
      if (sample.name != family_name) return fail("counter sample name must match family");
      if (!(sample.value >= 0.0)) return fail("counter " + sample.name + " is negative");
    } else if (fam->type == "histogram") {
      if (is_bucket) {
        if (!sample.has_le) return fail("histogram bucket without le label");
        const double le = sample.le_inf ? std::numeric_limits<double>::infinity() : sample.le;
        if (le <= fam->last_le) return fail("bucket le not increasing in " + family_name);
        if (sample.value < fam->last_bucket_value) {
          return fail("bucket counts not cumulative in " + family_name);
        }
        fam->last_le = le;
        fam->last_bucket_value = sample.value;
        if (sample.le_inf) {
          fam->saw_inf_bucket = true;
          fam->inf_bucket_value = sample.value;
        }
      } else if (is_count) {
        fam->saw_count = true;
        fam->count_value = sample.value;
      } else if (is_sum) {
        fam->saw_sum = true;
      } else {
        return fail("histogram family " + family_name + " sample must be _bucket/_count/_sum");
      }
    } else if (fam->type == "summary") {
      if (sample.name == family_name) {
        if (!sample.has_quantile) return fail("summary sample without quantile label");
        if (sample.quantile <= fam->last_quantile) {
          return fail("summary quantiles not increasing in " + family_name);
        }
        if (sample.value < fam->last_quantile_value) {
          return fail("summary quantile values not monotone in " + family_name);
        }
        fam->last_quantile = sample.quantile;
        fam->last_quantile_value = sample.value;
      } else if (!is_count && !is_sum) {
        return fail("summary family " + family_name + " sample must be quantile/_count/_sum");
      }
    }
    if (pos > text.size()) break;
  }

  line_no = 0;  // family-level diagnostics are not line-anchored
  for (const auto& [name, fam] : families) {
    if (!fam.has_samples) {
      if (error) *error = "family " + name + " declared but has no samples";
      return false;
    }
    if (fam.type == "histogram") {
      if (!fam.saw_inf_bucket || !fam.saw_count || !fam.saw_sum) {
        if (error) *error = "histogram " + name + " missing +Inf bucket, _count or _sum";
        return false;
      }
      if (fam.inf_bucket_value != fam.count_value) {
        if (error) *error = "histogram " + name + " +Inf bucket != _count";
        return false;
      }
    }
  }
  if (samples == 0) {
    if (error) *error = "exposition has no samples";
    return false;
  }
  return true;
}

}  // namespace mirage::obs
