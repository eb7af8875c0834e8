#ifndef GQZOO_BENCH_E2E_BENCH_H_
#define GQZOO_BENCH_E2E_BENCH_H_

// Shared declarations of the end-to-end benchmark: the workloads and their
// inputs (bank.cc), the in-process layer replay (layers.cc) and the
// results comparison (compare.cc). gqzoo_bench.cc drives a gqzoo_serve
// child over loopback with these inputs.

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/crpq/crpq.h"
#include "src/engine/engine.h"
#include "src/engine/language.h"
#include "src/graph/delta/delta.h"
#include "src/server/client.h"

namespace gqzoo::e2e {

// --- workloads --------------------------------------------------------------

enum class WorkloadKind { kLookup, kAnalytics, kPaths, kWriteMix };

struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kLookup;
  std::string name;
  double scale = 1.0;     // bank(s)
  size_t readers = 4;     // closed-loop reader connections
  double writer_batches_per_s = 0;  // open-loop writer; 0 = none
  bool persist = false;   // --persist with fsync on every commit
};

/// The four traffic mixes. `conns` = min(4, nproc) connections: lookup,
/// analytics and paths read on all of them, and write_mix gives one to its
/// writer; `smoke` shrinks the graph. False for an unknown name.
bool FindWorkload(const std::string& name, size_t conns, bool smoke,
                  WorkloadSpec* out);

// --- the bank graph ---------------------------------------------------------

/// bank(s): 5000·s Person{age}, 10000·s Account{blocked} (2% true), one
/// `owns` edge per account, 60000·s Transfer{amount}, 20000·s knows.
struct BankSize {
  size_t persons = 0;
  size_t accounts = 0;
  size_t transfers = 0;
  size_t knows = 0;
};
BankSize BankOf(double scale);

/// bank(s) generated from `seed` alone: the gqzoo text the server loads,
/// and the Transfer adjacency the paths workload draws connected endpoint
/// pairs from.
struct BankGraph {
  struct Hop {
    uint32_t to = 0;
    uint32_t amount = 0;
  };
  BankSize size;
  std::string text;
  std::vector<std::vector<Hop>> transfers;  // by source account
};
BankGraph MakeBankGraph(const BankSize& size, uint64_t seed);

// --- read requests ----------------------------------------------------------

/// One read: its wire form and its in-process mirror are built from this.
struct ReadRequest {
  int template_id = 0;
  QueryLanguage language = QueryLanguage::kCrpq;
  std::string text;
  std::string from, to;  // kPaths endpoints
  PathMode mode = PathMode::kAll;
};

/// Every read is run with these limits on both sides of a comparison.
inline constexpr uint32_t kQueryTimeoutMs = 10000;
inline constexpr uint32_t kMaxDisplayRows = 1000000;

server::ClientQueryOptions WireOptions(const ReadRequest& r);
QueryRequest LocalRequest(const ReadRequest& r);

/// Deterministic request stream of one workload: one generator per
/// connection, each seeded from (seed, stream).
class ReadGenerator {
 public:
  /// `bank` must outlive the generator.
  ReadGenerator(const WorkloadSpec& spec, const BankGraph& bank, uint64_t seed,
                uint64_t stream);

  /// The next request of this connection's rotation over the templates.
  ReadRequest Next();

  /// `per_template` requests of every template with constants drawn from
  /// this generator's stream (the correctness gate and the replay).
  std::vector<ReadRequest> Sample(size_t per_template);

  static size_t NumTemplates(WorkloadKind kind);
  static const char* TemplateName(WorkloadKind kind, int template_id);

 private:
  ReadRequest Make(int template_id);
  size_t DrawAccount();
  void DrawConnectedPair(size_t hops, uint32_t max_amount, ReadRequest* r);

  WorkloadKind kind_;
  const BankGraph* bank_;
  std::mt19937_64 rng_;
  std::vector<double> zipf_cdf_;        // lookup: Zipf(0.99) over ranks
  std::vector<uint32_t> rank_to_account_;
  uint64_t next_ = 0;
};

// --- writes -----------------------------------------------------------------

/// The write_mix writer: batches of 32 ops. Three in four batches add
/// Transfer edges between random accounts; every fourth deletes 32 edges
/// the writer added earlier and saw acknowledged. Tracks what was acked so
/// the durability check can compare the reopened store against it.
class WriteGenerator {
 public:
  static constexpr size_t kOpsPerBatch = 32;

  WriteGenerator(const BankSize& bank, uint64_t seed);

  std::vector<std::string> NextBatch();
  /// Reports the outcome of the last batch from NextBatch.
  void Ack(bool ok);

  const std::vector<std::string>& alive() const { return alive_; }
  const std::vector<std::string>& deleted() const { return deleted_; }

 private:
  BankSize bank_;
  std::mt19937_64 rng_;
  uint64_t batches_ = 0;
  uint64_t next_edge_ = 0;
  std::vector<std::string> pending_adds_;
  std::vector<std::string> pending_deletes_;
  std::vector<std::string> alive_;    // acked adds not deleted since
  std::vector<std::string> deleted_;  // acked deletes
};

/// Parses the writer's op lines into one batch; false on a bad line.
bool ParseBatch(const std::vector<std::string>& lines, MutationBatch* batch,
                std::string* error);

// --- measurement helpers ----------------------------------------------------

using Clock = std::chrono::steady_clock;

/// The latency tail reported end to end and per layer. A run fails unless
/// at least kMinBeyond samples lie above it.
inline constexpr double kTailQ = 0.95;
inline constexpr const char* kTail = "p95";
inline constexpr size_t kMinBeyond = 10;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A sample of one quantity, with nearest-rank quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  /// Samples strictly above the q-quantile's rank.
  size_t Beyond(double q) const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// One reported number. `samples` is how many observations it summarizes.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

/// A timed interval of the traced run. Spans of one request share
/// `request`; `parent` indexes the enclosing span (-1 at the root).
struct Span {
  std::string name;
  double start_us = 0;  // since the trace epoch
  double end_us = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

/// In-memory span recorder; written out when the benchmark ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  int64_t Add(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t parent, uint64_t request);
  /// Per span name: the mean self time (span minus the part its children
  /// cover), in ms, and the span count.
  std::vector<Metric> SelfTimes() const;
  std::string ToJson(size_t max_spans) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

std::string JsonEscape(const std::string& s);

// --- layers.cc --------------------------------------------------------------

/// What the in-process replay needs: the server's exact inputs.
struct ReplayInput {
  WorkloadSpec spec;
  const std::string* graph_text = nullptr;
  std::vector<ReadRequest> requests;  // distinct reads of the workload
  size_t threads = 1;                 // the server's engine threads
  /// write_mix: op-line batches like the writer's, and a directory the
  /// replay may use for its durable stores.
  std::vector<std::vector<std::string>> batches;
  std::string replay_dir;
  /// write_mix: a persist dir in the state the measured server recovered
  /// from (copied, never modified).
  std::string prepared_dir;
};

/// Replays the workload's distinct requests in-process with no server
/// running and times each layer call around it. Appends spans to `log`
/// and returns the layer metrics (names as in the README). False with
/// `*error` set when a replayed call fails.
bool ReplayLayers(const ReplayInput& input, SpanLog* log,
                  std::vector<Metric>* metrics, std::string* error);

// --- compare.cc -------------------------------------------------------------

/// `gqzoo_bench --compare A.json... --against B.json...`: prints one row
/// per (workload, metric) with the verdict for B against A under the
/// bounds in BENCHMARK.json. Returns the process exit code.
int RunCompare(const std::vector<std::string>& base,
               const std::vector<std::string>& candidate);

/// `gqzoo_bench --summarize R.json...`: per workload and metric, the
/// median, quartiles and spread over the runs, as JSON on stdout.
int RunSummarize(const std::vector<std::string>& files);

}  // namespace gqzoo::e2e

#endif  // GQZOO_BENCH_E2E_BENCH_H_
