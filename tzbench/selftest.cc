// Tests for the benchmark's own helpers (tzbench/trace.h): percentiles, the
// tail-support rule, interval union, self time and span nesting. Plain
// checks with no test framework, so the benchmark package builds without
// googletest. Exit 0 = all passed.
//
//   python3 tzbench/run.py --selftest

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "tzbench/trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using tzbench::Span;
using tzbench::SpanClock;

void TestPercentile() {
  using tzbench::Percentile;
  Expect(Percentile({}, 0.5) == 0.0, "empty sample gives 0");
  Expect(Near(Percentile({7.0}, 0.9), 7.0), "single sample");
  // Unsorted input; linear interpolation between order statistics.
  Expect(Near(Percentile({4, 1, 3, 2}, 0.5), 2.5), "median of even count");
  Expect(Near(Percentile({5, 1, 3}, 0.5), 3.0), "median of odd count");
  Expect(Near(Percentile({1, 2, 3, 4, 5}, 0.25), 2.0), "lower quartile");
  Expect(Near(Percentile({0, 10}, 0.9), 9.0), "interpolated tail");
  Expect(Near(Percentile({1, 2, 3}, 1.0), 3.0), "q = 1 is the maximum");
  Expect(Near(Percentile({1, 2, 3}, 0.0), 1.0), "q = 0 is the minimum");
}

void TestTailSupported() {
  using tzbench::TailSupported;
  Expect(TailSupported(100, 0.90), "p90 over 100 samples has 10 beyond");
  Expect(!TailSupported(99, 0.90), "p90 over 99 samples is unsupported");
  Expect(TailSupported(1000, 0.99), "p99 over 1000 samples");
  Expect(!TailSupported(999, 0.99), "p99 over 999 samples");
}

void TestUnionLength() {
  using tzbench::UnionLength;
  Expect(UnionLength({}) == 0, "empty union");
  Expect(UnionLength({{0, 10}, {5, 15}}) == 15, "overlap merges");
  Expect(UnionLength({{0, 5}, {10, 12}}) == 7, "disjoint intervals add");
  Expect(UnionLength({{10, 12}, {0, 20}, {3, 4}}) == 20, "nested, unsorted");
  Expect(UnionLength({{5, 5}, {7, 6}}) == 0, "empty and inverted ignored");
  Expect(UnionLength({{0, 5}, {5, 8}}) == 8, "touching intervals");
}

void TestSelfTime() {
  // request [0,100) with children [10,40) and [30,60) overlapping, plus a
  // grandchild [12,20) under the first child.
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1, SpanClock::kWall},
      {"load", 10, 40, 0, 1, SpanClock::kWall},
      {"prefill", 30, 60, 0, 1, SpanClock::kWall},
      {"inner", 12, 20, 1, 1, SpanClock::kWall},
  };
  const std::vector<int64_t> self = tzbench::SelfTimes(spans);
  Expect(self[0] == 50, "parent self time excludes the children's union");
  Expect(self[1] == 22, "child self time excludes its own child");
  Expect(self[2] == 30, "leaf self time is its duration");
  Expect(self[3] == 8, "grandchild self time");
  // Self times of a tree add up to the root's duration when children nest.
  std::vector<Span> tree = {
      {"request", 0, 100, -1, 2, SpanClock::kWall},
      {"a", 0, 30, 0, 2, SpanClock::kWall},
      {"b", 30, 90, 0, 2, SpanClock::kWall},
      {"c", 40, 50, 2, 2, SpanClock::kWall},
  };
  int64_t sum = 0;
  for (int64_t v : tzbench::SelfTimes(tree)) {
    sum += v;
  }
  Expect(sum == 100, "self times partition the root interval");
  const auto by_name = tzbench::SelfTimeByName(
      {{"step", 0, 10, -1, 1, SpanClock::kWall},
       {"step", 20, 25, -1, 2, SpanClock::kWall}});
  Expect(by_name.at("step") == 15, "self time sums per name");
  // A child sticking out of its parent only removes the overlapping part.
  const auto clipped = tzbench::SelfTimes(
      {{"p", 10, 20, -1, 1, SpanClock::kWall},
       {"c", 15, 30, 0, 1, SpanClock::kWall}});
  Expect(clipped[0] == 5, "child clipped to the parent interval");
}

void TestNesting() {
  using tzbench::CheckNesting;
  std::vector<Span> good = {
      {"request", 0, 100, -1, 1, SpanClock::kWall},
      {"load", 0, 50, 0, 1, SpanClock::kWall},
      {"restore", 5, 9, -1, 1, SpanClock::kSim},
  };
  Expect(CheckNesting(good).empty(), "well-formed tree passes");
  auto bad = good;
  bad[1].end = 101;
  Expect(!CheckNesting(bad).empty(), "child past its parent's end");
  bad = good;
  bad[1].request = 2;
  Expect(!CheckNesting(bad).empty(), "child with another request id");
  bad = good;
  bad[1].clock = SpanClock::kSim;
  Expect(!CheckNesting(bad).empty(), "child on another clock");
  bad = good;
  bad[0].parent = 1;
  Expect(!CheckNesting(bad).empty(), "parent must be an earlier span");
  bad = good;
  bad[2].end = 4;
  Expect(!CheckNesting(bad).empty(), "span ending before it starts");
}

void TestRecorder() {
  tzbench::SpanRecorder off(false);
  Expect(off.Add("x", 0, 1, -1, 0) == -1, "disabled recorder returns -1");
  off.Close(-1, 5);
  Expect(off.spans().empty(), "disabled recorder keeps nothing");
  tzbench::SpanRecorder on(true);
  const int root = on.Open("request", 10, -1, 3);
  const int child = on.Add("step", 11, 12, root, 3);
  on.Close(root, 20);
  Expect(root == 0 && child == 1, "indices in recording order");
  Expect(on.spans()[0].end == 20, "Close sets the end");
  Expect(tzbench::CheckNesting(on.spans()).empty(), "recorded tree nests");
}

}  // namespace

int main() {
  TestPercentile();
  TestTailSupported();
  TestUnionLength();
  TestSelfTime();
  TestNesting();
  TestRecorder();
  if (failures > 0) {
    fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  printf("tzbench selftest: all checks passed\n");
  return 0;
}
