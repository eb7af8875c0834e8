#include "src/engine/metrics.h"

#include <algorithm>
#include <cstdio>

namespace gqzoo {

namespace {

// Index of the highest set bit; 0 for 0.
size_t BucketOf(uint64_t us) {
  size_t b = 0;
  while (us > 1 && b + 1 < LatencyHistogram::kNumBuckets) {
    us >>= 1;
    ++b;
  }
  return b;
}

}  // namespace

void LatencyHistogram::Record(std::chrono::microseconds latency) {
  uint64_t us = static_cast<uint64_t>(std::max<int64_t>(latency.count(), 0));
  buckets_[BucketOf(us)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
  uint64_t prev = max_us_.load(std::memory_order_relaxed);
  while (prev < us &&
         !max_us_.compare_exchange_weak(prev, us, std::memory_order_relaxed)) {
  }
}

uint64_t LatencyHistogram::PercentileUpperBoundUs(double p) const {
  uint64_t total = count();
  if (total == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * total);
  if (rank >= total) rank = total - 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen > rank) return uint64_t{1} << (i + 1);
  }
  return uint64_t{1} << kNumBuckets;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
  max_us_.store(0, std::memory_order_relaxed);
}

std::string MetricsRegistry::ReportText() const {
  char line[160];
  std::string out = "== engine metrics ==\n";
  auto row = [&](const char* name, uint64_t value) {
    snprintf(line, sizeof(line), "%-24s %10llu\n", name,
             static_cast<unsigned long long>(value));
    out += line;
  };
  row("queries_total", queries_total.value());
  row("queries_ok", queries_ok.value());
  row("queries_error", queries_error.value());
  row("parse_errors", parse_errors.value());
  row("deadline_exceeded", deadline_exceeded.value());
  row("cancelled", cancelled.value());
  row("resource_exhausted", resource_exhausted.value());
  row("overloaded_shed", overloaded_shed.value());
  row("cache_hits", cache_hits.value());
  row("cache_misses", cache_misses.value());
  row("truncated_results", truncated_results.value());
  row("graph_epoch_bumps", graph_epoch_bumps.value());
  row("write_batches", write_batches.value());
  row("write_ops", write_ops.value());
  row("write_sheds", write_sheds.value());
  row("compactions_run", compactions_run.value());
  row("merged_view_builds", merged_view_builds.value());
  row("wcoj_plans", wcoj_plans.value());
  row("queue_depth_high_water", queue_depth_high_water.value());
  row("peak_query_bytes", peak_query_bytes.value());
  row("delta_pending_ops", delta_pending_ops.value());
  if (server_sessions_total.value() > 0) {
    row("server_sessions_total", server_sessions_total.value());
    row("server_connections", server_connections.value());
    row("server_connections_hw", server_connections_high_water.value());
    row("server_queries", server_queries.value());
    row("server_mutations", server_mutations.value());
    row("server_stream_chunks", server_stream_chunks.value());
    row("server_stream_bytes", server_stream_bytes.value());
    row("tenant_quota_shed", tenant_quota_shed.value());
    row("server_drain_shed", server_drain_shed.value());
  }
  auto per_language = [&](const char* prefix,
                          const std::array<Counter, kNumQueryLanguages>& a) {
    for (size_t i = 0; i < kNumQueryLanguages; ++i) {
      uint64_t n = a[i].value();
      if (n == 0) continue;
      std::string name = std::string(prefix) + "[" +
                         QueryLanguageName(static_cast<QueryLanguage>(i)) +
                         "]";
      row(name.c_str(), n);
    }
  };
  per_language("queries", queries_by_language);
  per_language("shed", shed_by_language);
  per_language("exhausted", exhausted_by_language);
  per_language("cancelled", cancelled_by_language);
  per_language("wcoj", wcoj_by_language);
  uint64_t n = latency.count();
  if (n > 0) {
    snprintf(line, sizeof(line),
             "latency_us     mean %llu  p50 <%llu  p95 <%llu  p99 <%llu  "
             "max %llu  (n=%llu)\n",
             static_cast<unsigned long long>(latency.sum_us() / n),
             static_cast<unsigned long long>(
                 latency.PercentileUpperBoundUs(50)),
             static_cast<unsigned long long>(
                 latency.PercentileUpperBoundUs(95)),
             static_cast<unsigned long long>(
                 latency.PercentileUpperBoundUs(99)),
             static_cast<unsigned long long>(latency.max_us()),
             static_cast<unsigned long long>(n));
    out += line;
  }
  return out;
}

void MetricsRegistry::Reset() {
  queries_total.Reset();
  queries_ok.Reset();
  queries_error.Reset();
  parse_errors.Reset();
  deadline_exceeded.Reset();
  cancelled.Reset();
  resource_exhausted.Reset();
  overloaded_shed.Reset();
  cache_hits.Reset();
  cache_misses.Reset();
  truncated_results.Reset();
  graph_epoch_bumps.Reset();
  write_batches.Reset();
  write_ops.Reset();
  write_sheds.Reset();
  compactions_run.Reset();
  merged_view_builds.Reset();
  queue_depth_high_water.Reset();
  peak_query_bytes.Reset();
  delta_pending_ops.Reset();
  server_sessions_total.Reset();
  server_queries.Reset();
  server_mutations.Reset();
  server_stream_chunks.Reset();
  server_stream_bytes.Reset();
  tenant_quota_shed.Reset();
  server_drain_shed.Reset();
  server_connections.Reset();
  server_connections_high_water.Reset();
  for (auto& c : queries_by_language) c.Reset();
  for (auto& c : shed_by_language) c.Reset();
  for (auto& c : exhausted_by_language) c.Reset();
  for (auto& c : cancelled_by_language) c.Reset();
  wcoj_plans.Reset();
  for (auto& c : wcoj_by_language) c.Reset();
  latency.Reset();
}

}  // namespace gqzoo
