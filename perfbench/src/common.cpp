#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench.hpp"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  if (q <= 0) return v.front();
  if (q >= 1) return v.back();
  // Median of an even count is the mean of the middle pair; other
  // quantiles are nearest-rank.
  if (q == 0.5 && v.size() % 2 == 0)
    return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Tail tail(std::vector<double> v, std::size_t min_beyond) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double pct : {99.0, 98.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(v.size()) * (1 - pct / 100);
    if (beyond >= static_cast<double>(min_beyond) || pct == 50.0) {
      t.percentile = pct;
      t.value = quantile(v, pct / 100);
      return t;
    }
  }
  return t;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, vu] = items_[i];
    // A failed request counts as infinitely late; JSON has no infinity, so
    // such a tail reads as 1e12 ms.
    const double value = std::isfinite(vu.first) ? vu.first : 1e12;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (i) out += ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

void RunResult::mismatch(const std::string& what) {
  correct = false;
  if (notes.size() < 200) note("MISMATCH " + what);
}

int Tracer::open(std::string name, int parent, long request) {
  const double t = ms_between(origin_, Clock::now());
  spans_.push_back({std::move(name), t, t, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms =
      ms_between(origin_, Clock::now());
}

int Tracer::add(std::string name, Clock::time_point start,
                Clock::time_point end, int parent, long request) {
  spans_.push_back({std::move(name), ms_between(origin_, start),
                    ms_between(origin_, end), parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::self_ms() const {
  // Self time: the span's duration minus the part of its interval that the
  // union of its children covers.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ms, s.end_ms});
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start_ms);
      b = std::min(b, s.end_ms);
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = std::max(0.0, (s.end_ms - s.start_ms) - covered);
  }
  return self;
}

std::vector<std::string> Tracer::summary() const {
  struct Agg {
    long count = 0;
    double total = 0, self = 0;
  };
  std::map<std::string, Agg> by_name;
  const std::vector<double> self = self_ms();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Agg& a = by_name[spans_[i].name];
    a.count += 1;
    a.total += spans_[i].end_ms - spans_[i].start_ms;
    a.self += self[i];
  }
  std::vector<std::string> lines;
  for (const auto& [name, a] : by_name) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "span %-18s count=%-6ld total_ms=%-12.3f self_ms=%.3f",
                  name.c_str(), a.count, a.total, a.self);
    lines.emplace_back(buf);
  }
  return lines;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<double> self = self_ms();
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%ld,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"request\":%ld,\"self_us\":%.3f}}",
                  s.name.c_str(), s.request < 0 ? 0L : s.request,
                  s.start_ms * 1000, (s.end_ms - s.start_ms) * 1000, i,
                  s.parent, s.request, self[i] * 1000);
    out << buf << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
