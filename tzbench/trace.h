// Span recording and the statistics helpers the benchmark reports with.
//
// Spans are recorded by the benchmark itself, around each call it makes into
// a layer of the system (LlmTa, ServingRuntime, the crypto primitives). They
// leave the secure world's interface, so a span carries only a name, its
// interval, its parent, a request id and which clock it was read from: no
// tokens, text, logits or key material.

#ifndef TZBENCH_TRACE_H_
#define TZBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace tzbench {

// Wall spans are steady_clock nanoseconds; sim spans are the simulator's
// virtual clock (SimDuration units). A parent and its children share a
// clock, so interval arithmetic never mixes the two.
enum class SpanClock : uint8_t { kWall = 0, kSim = 1 };

inline const char* SpanClockName(SpanClock clock) {
  return clock == SpanClock::kWall ? "wall" : "sim";
}

struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int parent = -1;  // Index into the recorder's span list; -1 = root.
  uint64_t request = 0;
  SpanClock clock = SpanClock::kWall;
};

// In-memory span list. Disabled, every call is a no-op that returns -1, so
// the untraced run pays one branch per call site.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its index (the handle children name
  // as their parent).
  int Add(std::string name, int64_t start, int64_t end, int parent,
          uint64_t request, SpanClock clock = SpanClock::kWall) {
    if (!enabled_) {
      return -1;
    }
    const auto t0 = std::chrono::steady_clock::now();
    spans_.push_back({std::move(name), start, end, parent, request, clock});
    Charge(std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0)
               .count());
    return static_cast<int>(spans_.size()) - 1;
  }

  // Opens a span whose end is not known yet; Close() sets it. A parent is
  // opened before its children so its index is smaller than theirs.
  int Open(std::string name, int64_t start, int parent, uint64_t request,
           SpanClock clock = SpanClock::kWall) {
    return Add(std::move(name), start, start, parent, request, clock);
  }
  void Close(int index, int64_t end) {
    if (index >= 0) {
      spans_[index].end = end;
    }
  }

  // Wall time the traced run spent on its own bookkeeping: recording spans
  // (timed by Add itself) and whatever counter sampling callers Charge().
  void Charge(int64_t ns) { cost_ns_ += ns; }
  int64_t cost_ns() const { return cost_ns_; }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int64_t cost_ns_ = 0;
};

// Linear-interpolation percentile (q in [0, 1]) over an unsorted sample;
// 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// A tail percentile is reported only when at least `min_beyond` samples lie
// beyond it; below that it is an order statistic of a handful of samples.
inline bool TailSupported(size_t samples, double q, size_t min_beyond = 10) {
  return (1.0 - q) * static_cast<double>(samples) + 1e-9 >=
         static_cast<double>(min_beyond);
}

// Length of the union of [start, end) intervals.
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_start = 0;
  int64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) {
      continue;
    }
    if (!open || s > cur_end) {
      if (open) {
        total += cur_end - cur_start;
      }
      cur_start = s;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) {
    total += cur_end - cur_start;
  }
  return total;
}

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (children clipped to the parent's interval).
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      const Span& p = spans[s.parent];
      children[s.parent].push_back(
          {std::max(s.start, p.start), std::min(s.end, p.end)});
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = (spans[i].end - spans[i].start) - UnionLength(children[i]);
  }
  return self;
}

// Sum of self times per span name.
inline std::map<std::string, int64_t> SelfTimeByName(
    const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimes(spans);
  std::map<std::string, int64_t> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name] += self[i];
  }
  return out;
}

// Checks the tree shape every consumer of the span list relies on. Returns
// an empty string when well formed, else the first violation found:
//   - each span ends at or after it starts;
//   - a parent index points at an earlier span;
//   - a child shares its parent's clock and request id;
//   - a child lies within its parent's interval.
inline std::string CheckNesting(const std::vector<Span>& spans) {
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char where[160];
    snprintf(where, sizeof(where), "span %zu (%s): ", i, s.name.c_str());
    if (s.end < s.start) {
      return std::string(where) + "ends before it starts";
    }
    if (s.parent < 0) {
      continue;
    }
    if (static_cast<size_t>(s.parent) >= i) {
      return std::string(where) + "parent is not an earlier span";
    }
    const Span& p = spans[s.parent];
    if (p.clock != s.clock) {
      return std::string(where) + "clock differs from its parent's";
    }
    if (p.request != s.request) {
      return std::string(where) + "request id differs from its parent's";
    }
    if (s.start < p.start || s.end > p.end) {
      return std::string(where) + "lies outside its parent's interval";
    }
  }
  return "";
}

// Chrome trace-event JSON (chrome://tracing, Perfetto). Wall and sim spans
// go to separate process ids so the two clocks never share a timeline.
inline bool WriteChromeTrace(const std::vector<Span>& spans,
                             const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  fprintf(f, "{\"traceEvents\":[\n");
  int64_t origin[2] = {INT64_MAX, INT64_MAX};
  for (const Span& s : spans) {
    int64_t& o = origin[static_cast<int>(s.clock)];
    o = std::min(o, s.start);
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t o = origin[static_cast<int>(s.clock)];
    fprintf(f,
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%llu,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"clock\":\"%s\","
            "\"parent\":%d}}\n",
            i == 0 ? "" : ",", s.name.c_str(), static_cast<int>(s.clock),
            static_cast<unsigned long long>(s.request),
            static_cast<double>(s.start - o) / 1e3,
            static_cast<double>(s.end - s.start) / 1e3,
            SpanClockName(s.clock), s.parent);
  }
  fprintf(f, "]}\n");
  return fclose(f) == 0;
}

}  // namespace tzbench

#endif  // TZBENCH_TRACE_H_
