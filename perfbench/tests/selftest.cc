// Self-tests of the benchmark's own helpers: the percentile rule, the ratio
// helpers, the metric-name grammar, the JSON number format and the span
// recorder. Exits nonzero if any check fails.
//
//   python3 perfbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,    \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using namespace otclean::perfbench;

void TestPercentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT(Percentile(v, 0.5) == 50.0);
  EXPECT(Percentile(v, 0.9) == 90.0);
  EXPECT(Percentile(v, 1.0) == 100.0);
  EXPECT(Percentile({7.0}, 0.9) == 7.0);
  EXPECT(Percentile({}, 0.5) == 0.0);
  EXPECT(Median({3.0, 1.0, 2.0}) == 2.0);
  EXPECT(Median({1.0, 2.0}) == 1.0);  // nearest rank: never interpolated
}

void TestTailRule() {
  // p90 is a resolved tail only with at least ten samples beyond it.
  EXPECT(SamplesBeyond(100, 0.9) == 10);
  EXPECT(TailResolved(100, 0.9));
  EXPECT(!TailResolved(99, 0.9));
  EXPECT(SamplesBeyond(99, 0.9) == 9);
  EXPECT(!TailResolved(1, 0.9));
  EXPECT(SamplesBeyond(0, 0.9) == 0);
  EXPECT(TailResolved(20, 0.5));
  EXPECT(!TailResolved(19, 0.5));
}

void TestRatios() {
  EXPECT(Ratio(3.0, 4.0) == 0.75);
  EXPECT(Ratio(1.0, 0.0) == 0.0);  // an empty base never divides by zero
  EXPECT(Ratio(0.0, 0.0) == 0.0);
  EXPECT(Ratio(5.0, -1.0) == 0.0);
  EXPECT(Mean({}) == 0.0);
  EXPECT(Mean({1.0, 2.0, 6.0}) == 3.0);
}

void TestMetricNames() {
  for (const char* ok : {"setup_s", "repair_p50_s", "linalg.kernel_nnz",
                         "ot.sinkhorn_us_per_iter", "a-b.c_9", "9lives"}) {
    EXPECT(ValidMetricName(ok));
  }
  for (const char* bad : {"", ".x", "_x", "-x", "a b", "a/b", "p90%", "a:b"}) {
    EXPECT(!ValidMetricName(bad));
  }
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
}

void TestJson() {
  const double x = 0.1 + 0.2;
  EXPECT(std::stod(JsonNumber(x)) == x);  // every digit survives
  EXPECT(JsonNumber(3.0) == "3");
  EXPECT(JsonNumber(std::numeric_limits<double>::infinity()) == "null");
  EXPECT(JsonNumber(std::nan("")) == "null");
  EXPECT(JsonString("a\"b\\c") == "\"a\\\"b\\\\c\"");
  EXPECT(JsonString("\n") == "\"\\u000a\"");
}

void TestTracer(const char* tmp_path) {
  Tracer tr;
  {
    ScopedSpan root(tr, "request", 7);
    { ScopedSpan a(tr, "child.a", 7); }
    { ScopedSpan b(tr, "child.b", 7); }
  }
  tr.AddSpan("detached", 8, 0, 1000);
  const auto& spans = tr.spans();
  EXPECT(spans.size() == 4);
  EXPECT(spans[0].parent == -1);
  EXPECT(spans[1].parent == 0 && spans[2].parent == 0);
  EXPECT(spans[3].parent == -1 && std::fabs(spans[3].seconds() - 1e-6) < 1e-18);
  for (const Span& s : spans) EXPECT(s.end_ns >= s.start_ns);
  // Self time is the root's duration minus its two children.
  const double self = tr.SelfSeconds(0);
  EXPECT(std::fabs(self - (spans[0].seconds() - spans[1].seconds() -
                           spans[2].seconds())) < 1e-12);
  EXPECT(self >= 0.0);

  EXPECT(tr.WriteJson(tmp_path, "{\"host\": 1}"));
  std::ifstream in(tmp_path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT(text.str().find("\"traceEvents\"") != std::string::npos);
  EXPECT(text.str().find("\"child.a\": {\"count\": 1") != std::string::npos);
  std::remove(tmp_path);
}

}  // namespace

int main(int argc, char** argv) {
  TestPercentile();
  TestTailRule();
  TestRatios();
  TestMetricNames();
  TestJson();
  TestTracer(argc > 1 ? argv[1] : "perfbench_selftest_trace.json");
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
