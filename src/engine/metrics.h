#ifndef GQZOO_ENGINE_METRICS_H_
#define GQZOO_ENGINE_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "src/engine/language.h"

namespace gqzoo {

/// A monotonically increasing counter, safe for concurrent increments.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time gauge (current delta size, pending-op counts): `Set`
/// overwrites, unlike `Counter`/`MaxGauge` which only grow.
class Gauge {
 public:
  void Set(uint64_t v) { value_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A running-maximum gauge (high-water marks: queue depth, peak accounted
/// bytes). `Update` keeps the largest value ever observed.
class MaxGauge {
 public:
  void Update(uint64_t v) {
    uint64_t prev = value_.load(std::memory_order_relaxed);
    while (prev < v &&
           !value_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A lock-free latency histogram with power-of-two microsecond buckets:
/// bucket i counts latencies in [2^i, 2^(i+1)) µs (bucket 0 also catches
/// sub-microsecond queries). Good enough for engine-level percentiles
/// without allocating per observation.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 32;  // up to ~71 minutes

  void Record(std::chrono::microseconds latency);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Total across all observations, in microseconds.
  uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  uint64_t max_us() const { return max_us_.load(std::memory_order_relaxed); }

  /// Upper bound (in µs) of the bucket containing the p-th percentile
  /// (p in [0, 100]); 0 when empty.
  uint64_t PercentileUpperBoundUs(double p) const;

  void Reset();

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// Engine-wide metrics: query counters (total / per outcome / per
/// language), plan-cache deltas, and a latency histogram. All operations
/// are thread-safe; `ReportText()` renders the registry for the shell's
/// `stats` command and the batch driver's final report.
class MetricsRegistry {
 public:
  Counter queries_total;
  Counter queries_ok;
  Counter queries_error;       // all failures, including the two below
  Counter parse_errors;        // ErrorCode::kParse
  Counter deadline_exceeded;   // ErrorCode::kDeadlineExceeded
  Counter cancelled;           // ErrorCode::kCancelled (explicit cancel)
  Counter resource_exhausted;  // ErrorCode::kResourceExhausted (budgets)
  Counter overloaded_shed;     // ErrorCode::kOverloaded (admission control)
  Counter cache_hits;          // compiled-plan cache
  Counter cache_misses;
  Counter truncated_results;   // evaluator hit an enumeration limit
  Counter graph_epoch_bumps;   // SetGraph calls (base replacements);
                               // mutations do NOT bump the epoch
  Counter write_batches;            // ApplyMutation calls admitted
  Counter write_ops;                // individual mutation ops applied
  Counter write_sheds;              // write batches shed by admission control
  Counter compactions_run;          // delta folds into a fresh base
  Counter merged_view_builds;       // overlay+base merged views constructed
  // Network front-end (all zero for in-process-only engines).
  Counter server_sessions_total;   // connections accepted over the lifetime
  Counter server_queries;          // query frames handled
  Counter server_mutations;        // mutation frames handled
  Counter server_stream_chunks;    // row chunks written to sockets
  Counter server_stream_bytes;     // row bytes written to sockets
  Counter tenant_quota_shed;       // queries shed by per-tenant token buckets
  Counter server_drain_shed;       // queries refused or cancelled by drain
  Counter wcoj_plans;              // compiled plans carrying a wcoj group
  std::array<Counter, kNumQueryLanguages> queries_by_language;
  std::array<Counter, kNumQueryLanguages> shed_by_language;
  std::array<Counter, kNumQueryLanguages> exhausted_by_language;
  std::array<Counter, kNumQueryLanguages> cancelled_by_language;  // + deadline
  std::array<Counter, kNumQueryLanguages> wcoj_by_language;  // executions that
                                                             // engaged a wcoj

  MaxGauge queue_depth_high_water;  // governor in-flight high-water mark
  MaxGauge peak_query_bytes;        // largest per-query accounted footprint
  Gauge delta_pending_ops;          // ops in the live overlay right now
  Gauge server_connections;         // sessions open right now
  MaxGauge server_connections_high_water;

  LatencyHistogram latency;

  void RecordLanguage(QueryLanguage language) {
    queries_by_language[static_cast<size_t>(language)].Increment();
  }

  /// Multi-line, human-readable dump of every counter plus latency
  /// mean/p50/p95/p99/max.
  std::string ReportText() const;

  void Reset();
};

}  // namespace gqzoo

#endif  // GQZOO_ENGINE_METRICS_H_
