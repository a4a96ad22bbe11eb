#ifndef OTCLEAN_PERFBENCH_STATS_H_
#define OTCLEAN_PERFBENCH_STATS_H_

// Small statistics and output helpers of the repo benchmark: nearest-rank
// percentiles with the "at least ten samples beyond" rule, ratios with an
// explicit base, the metric-name grammar, and the JSON number format.
// Header-only so the self-tests (perfbench/tests/selftest.cc) exercise the
// exact code the benchmark runs.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace otclean::perfbench {

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 for an empty set.
/// Nearest rank never interpolates, so the result is always a measured
/// sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

/// Samples strictly above the nearest-rank q-percentile position, i.e.
/// n − ceil(q·n).
inline size_t SamplesBeyond(size_t n, double q) {
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

/// True when the q-percentile of n samples has at least ten samples beyond
/// it — the condition under which a tail percentile is reported as such
/// (p90 needs n >= 100).
inline bool TailResolved(size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

/// part / base, or 0 when the base is empty. Every ratio the benchmark
/// reports goes through here so an empty base never divides by zero.
inline double Ratio(double part, double base) {
  return base > 0.0 ? part / base : 0.0;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The metric-name grammar of BENCHMARK.json: starts with a letter or
/// digit, then letters, digits, '_', '.', '-'; at most 64 characters.
inline bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

/// A number as JSON, with all its digits (17 significant, round-trip
/// exact). Non-finite values have no JSON spelling; they print as null so
/// the consumer rejects them loudly instead of parsing a made-up number.
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace otclean::perfbench

#endif  // OTCLEAN_PERFBENCH_STATS_H_
