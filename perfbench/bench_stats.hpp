// Arithmetic of the perfbench runner that is worth testing on its own:
// percentile reporting, span self times, and the open-loop arrival
// schedule. Header-only; test_bench_stats.cpp covers every function.
#ifndef SEGHDC_PERFBENCH_BENCH_STATS_HPP
#define SEGHDC_PERFBENCH_BENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace perfbench {

/// Samples a reported percentile must leave above it: a tail figure
/// resting on fewer samples than this is not reported at all.
inline constexpr std::size_t kTailBeyond = 10;

/// Median (mean of the two middle values for an even count); 0 when
/// `values` is empty.
inline double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile (obs::percentile_nearest_rank) of unsorted
/// `values`, q in (0, 100]; 0 when `values` is empty.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return seghdc::obs::percentile_nearest_rank(values, q);
}

/// The highest of p50, p90, p99 and p99.9 whose nearest-rank sample
/// still has at least kTailBeyond samples above it in a run of `n`
/// samples; 0 when not even the median qualifies (n < 20). p90 needs
/// n >= 100, p99 n >= 1000.
inline double reportable_tail_percentile(std::size_t n) {
  // Per-mille so the rank is exact integer arithmetic: rank = ceil(q*n).
  constexpr std::size_t kPerMille[] = {999, 990, 900, 500};
  for (const std::size_t q : kPerMille) {
    const std::size_t rank = (q * n + 999) / 1000;
    if (n >= rank + kTailBeyond) {
      return static_cast<double>(q) / 10.0;
    }
  }
  return 0.0;
}

/// Spans recorded after the fact by obs::emit_complete. Their start lies
/// on another thread's clock, so they never nest and never have
/// children.
inline bool is_retroactive(const seghdc::obs::TraceEvent& event) {
  return std::strcmp(event.name, "queue_wait") == 0;
}

/// Parent links and self times of a set of spans.
struct SpanTree {
  /// Index of the innermost enclosing span on the same thread, or -1.
  std::vector<std::ptrdiff_t> parent;
  /// Duration minus the part of it covered by direct children, in ns.
  std::vector<std::uint64_t> self_ns;
};

/// Nests `events` per thread by containment (a span is the child of the
/// innermost span on its thread that is still open when it starts) and
/// computes each span's self time. Children of one parent do not
/// overlap on one thread, so the covered part is the sum of their
/// durations, each clipped to the parent's end.
inline SpanTree build_span_tree(std::span<const seghdc::obs::TraceEvent> events) {
  SpanTree tree;
  tree.parent.assign(events.size(), -1);
  tree.self_ns.resize(events.size());
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    order[i] = i;
    tree.self_ns[i] = events[i].dur_ns;
  }
  // Per thread by start time; on equal starts the longer span first, so
  // a parent precedes a child that starts on the same tick.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& x = events[a];
    const auto& y = events[b];
    if (x.tid != y.tid) {
      return x.tid < y.tid;
    }
    if (x.start_ns != y.start_ns) {
      return x.start_ns < y.start_ns;
    }
    if (x.dur_ns != y.dur_ns) {
      return x.dur_ns > y.dur_ns;
    }
    return a < b;
  });
  const auto end_of = [&](std::size_t i) {
    return events[i].start_ns + events[i].dur_ns;
  };
  std::vector<std::size_t> open;
  std::uint32_t tid = 0;
  for (const std::size_t i : order) {
    const auto& event = events[i];
    if (open.empty() || event.tid != tid) {
      open.clear();
      tid = event.tid;
    }
    if (is_retroactive(event)) {
      continue;
    }
    while (!open.empty() && end_of(open.back()) <= event.start_ns) {
      open.pop_back();
    }
    if (!open.empty()) {
      const std::size_t p = open.back();
      tree.parent[i] = static_cast<std::ptrdiff_t>(p);
      const std::uint64_t covered =
          std::min(end_of(i), end_of(p)) - event.start_ns;
      tree.self_ns[p] -= std::min(covered, tree.self_ns[p]);
    }
    open.push_back(i);
  }
  return tree;
}

/// Arrival times, in seconds from the start of the run, of a Poisson
/// process at `rate` arrivals per second over [0, duration), conditioned
/// on its expected count: round(rate * duration) times drawn uniformly
/// and sorted, which is how a Poisson process's arrivals fall once their
/// number is given. Fixing the count keeps the offered load the same for
/// every seed. The uniforms come from a splitmix64 stream seeded with
/// `seed`, so a seed fixes the schedule exactly.
inline std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                            double duration) {
  const auto count = static_cast<std::size_t>(std::llround(rate * duration));
  std::vector<double> due(count);
  std::uint64_t state = seed;
  for (double& t : due) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    t = static_cast<double>(z >> 11) * 0x1.0p-53 * duration;  // [0, duration)
  }
  std::sort(due.begin(), due.end());
  return due;
}

}  // namespace perfbench

#endif  // SEGHDC_PERFBENCH_BENCH_STATS_HPP
