// Inputs of the end-to-end benchmark: the bank graph, the four workloads'
// request templates, and the write_mix writer's batches. Everything here
// is a pure function of the seed, so two runs with one seed send the same
// requests (the interleaving across connections is up to the scheduler).

#include <algorithm>
#include <cmath>

#include "bench/e2e/bench.h"

namespace gqzoo::e2e {

namespace {

/// SplitMix64 finalizer: decorrelates (seed, stream) pairs before they
/// seed a Mersenne Twister.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t Below(std::mt19937_64& rng, size_t n) {
  return static_cast<size_t>(rng() % n);
}

std::string Account(size_t i) { return "a" + std::to_string(i); }

// Lookup templates, anchored at one account: each does 0.1-0.3 ms of
// engine work, so the server, admission and the plan cache decide the
// result.
const char* const kLookupNames[] = {"transfer_1hop", "transfer_1to3",
                                    "owner", "owner_knows_owner"};
std::string LookupText(int t, const std::string& a) {
  switch (t) {
    case 0: return "q(y) :- Transfer(@" + a + ", y)";
    case 1: return "q(z) :- Transfer{1,3}(@" + a + ", z)";
    case 2: return "q(p) :- ~owns(@" + a + ", p)";
    default: return "q(b) :- (~owns knows owns)(@" + a + ", b)";
  }
}

// Analytics templates: whole-graph joins, filters and CSR scans. 1-3 are
// cyclic cores the planner hands to the worst-case-optimal join; 0 is
// acyclic (the row/batch kernel's case); 6 is an anchored conjunction
// whose second atom is evaluated unseeded today.
const char* const kAnalyticsNames[] = {
    "chain_owns_transfer",  "knows_triangle", "knows_4cycle",
    "transfer_triangle",    "gql_blocked",    "gql_person_join",
    "anchored_conjunction"};
constexpr size_t kAnchoredAccounts = 16;

const char* const kPathsNames[] = {"shortest", "trail", "simple",
                                   "shortest_datafilter"};
constexpr uint32_t kAnyAmount = 100000;

}  // namespace

bool FindWorkload(const std::string& name, size_t conns, bool smoke,
                  WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  spec.readers = conns;
  spec.scale = smoke ? 0.1 : 1.0;
  if (name == "lookup") {
    spec.kind = WorkloadKind::kLookup;
  } else if (name == "analytics") {
    // s=0.25 keeps each request at 2-20 ms of engine work. On a shared
    // host, engine time drifts by up to half between runs while the wire
    // time does not; at s=1 (7-110 ms) that drift put the run-to-run
    // spread of throughput and p50 past any usable bound (README.md).
    spec.kind = WorkloadKind::kAnalytics;
    spec.scale = smoke ? 0.1 : 0.25;
  } else if (name == "paths") {
    spec.kind = WorkloadKind::kPaths;
  } else if (name == "write_mix") {
    // s=0.2 keeps the checkpoint encode (quadratic in the graph today)
    // short enough that a compaction and its checkpoint finish inside
    // every run; 14 batches/s stays below what one connection can write.
    spec.kind = WorkloadKind::kWriteMix;
    spec.scale = smoke ? 0.05 : 0.2;
    spec.readers = conns > 1 ? conns - 1 : 1;
    spec.writer_batches_per_s = 14;
    spec.persist = true;
  } else {
    return false;
  }
  *out = spec;
  return true;
}

BankSize BankOf(double scale) {
  auto n = [scale](double base) {
    return std::max<size_t>(16,
                            static_cast<size_t>(std::llround(base * scale)));
  };
  BankSize b;
  b.persons = n(5000);
  b.accounts = n(10000);
  b.transfers = n(60000);
  b.knows = n(20000);
  return b;
}

BankGraph MakeBankGraph(const BankSize& size, uint64_t seed) {
  std::mt19937_64 rng(Mix(seed));
  BankGraph bank;
  bank.size = size;
  bank.transfers.resize(size.accounts);
  std::string& out = bank.text;
  out.reserve(56 * (size.persons + size.accounts + size.transfers +
                    size.knows));
  for (size_t i = 0; i < size.persons; ++i) {
    out += "node p" + std::to_string(i) + " :Person { age = " +
           std::to_string(18 + Below(rng, 72)) + " }\n";
  }
  for (size_t i = 0; i < size.accounts; ++i) {
    out += "node a" + std::to_string(i) + " :Account { blocked = " +
           (Below(rng, 100) < 2 ? "true" : "false") + " }\n";
  }
  for (size_t i = 0; i < size.accounts; ++i) {
    out += "edge o" + std::to_string(i) + " :owns p" +
           std::to_string(Below(rng, size.persons)) + " -> a" +
           std::to_string(i) + "\n";
  }
  for (size_t i = 0; i < size.transfers; ++i) {
    const size_t from = Below(rng, size.accounts);
    const size_t to = Below(rng, size.accounts);
    const size_t amount = Below(rng, 100000);
    out += "edge t" + std::to_string(i) + " :Transfer a" +
           std::to_string(from) + " -> a" + std::to_string(to) +
           " { amount = " + std::to_string(amount) + " }\n";
    bank.transfers[from].push_back(BankGraph::Hop{
        static_cast<uint32_t>(to), static_cast<uint32_t>(amount)});
  }
  for (size_t i = 0; i < size.knows; ++i) {
    const size_t from = Below(rng, size.persons);
    const size_t to = Below(rng, size.persons);
    out += "edge k" + std::to_string(i) + " :knows p" + std::to_string(from) +
           " -> p" + std::to_string(to) + "\n";
  }
  return bank;
}

server::ClientQueryOptions WireOptions(const ReadRequest& r) {
  server::ClientQueryOptions o;
  o.language = QueryLanguageName(r.language);
  o.timeout_ms = kQueryTimeoutMs;
  o.max_display_rows = kMaxDisplayRows;
  if (r.language == QueryLanguage::kPaths) {
    o.paths_from = r.from;
    o.paths_to = r.to;
    o.paths_mode = r.mode == PathMode::kShortest ? 1
                   : r.mode == PathMode::kSimple ? 2
                   : r.mode == PathMode::kTrail  ? 3
                                                 : 0;
  }
  return o;
}

QueryRequest LocalRequest(const ReadRequest& r) {
  QueryRequest q;
  q.language = r.language;
  q.text = r.text;
  q.timeout = std::chrono::milliseconds(kQueryTimeoutMs);
  q.max_display_rows = kMaxDisplayRows;
  if (r.language == QueryLanguage::kPaths) {
    q.paths.from = r.from;
    q.paths.to = r.to;
    q.paths.mode = r.mode;
  }
  return q;
}

ReadGenerator::ReadGenerator(const WorkloadSpec& spec, const BankGraph& bank,
                             uint64_t seed, uint64_t stream)
    : kind_(spec.kind), bank_(&bank), rng_(Mix(Mix(seed) ^ (stream + 1))),
      next_(stream) {
  if (kind_ != WorkloadKind::kLookup) return;
  // Zipf(0.99) over account ranks; which account holds which rank is a
  // function of the seed only, so every connection shares the hot set.
  const size_t accounts = bank_->size.accounts;
  zipf_cdf_.resize(accounts);
  double total = 0;
  for (size_t r = 0; r < accounts; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 0.99);
    zipf_cdf_[r] = total;
  }
  for (double& c : zipf_cdf_) c /= total;
  rank_to_account_.resize(accounts);
  for (size_t i = 0; i < accounts; ++i) {
    rank_to_account_[i] = static_cast<uint32_t>(i);
  }
  std::mt19937_64 perm(Mix(seed ^ 0x5a5a5a5aULL));
  for (size_t i = accounts; i > 1; --i) {
    std::swap(rank_to_account_[i - 1], rank_to_account_[Below(perm, i)]);
  }
}

size_t ReadGenerator::NumTemplates(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kAnalytics: return std::size(kAnalyticsNames);
    case WorkloadKind::kPaths: return std::size(kPathsNames);
    default: return std::size(kLookupNames);
  }
}

const char* ReadGenerator::TemplateName(WorkloadKind kind, int template_id) {
  switch (kind) {
    case WorkloadKind::kAnalytics: return kAnalyticsNames[template_id];
    case WorkloadKind::kPaths: return kPathsNames[template_id];
    default: return kLookupNames[template_id];
  }
}

size_t ReadGenerator::DrawAccount() {
  if (zipf_cdf_.empty()) return Below(rng_, bank_->size.accounts);
  const double u = std::uniform_real_distribution<double>(0, 1)(rng_);
  size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  return rank_to_account_[std::min(rank, rank_to_account_.size() - 1)];
}

ReadRequest ReadGenerator::Make(int t) {
  ReadRequest r;
  r.template_id = t;
  switch (kind_) {
    case WorkloadKind::kLookup:
    case WorkloadKind::kWriteMix:
      r.language = QueryLanguage::kCrpq;
      r.text = LookupText(t, Account(DrawAccount()));
      break;
    case WorkloadKind::kAnalytics:
      switch (t) {
        case 0:
          r.language = QueryLanguage::kCrpq;
          r.text = "q(p, r) :- owns(p, a), Transfer(a, b), owns(r, b)";
          break;
        case 1:
          r.language = QueryLanguage::kCrpq;
          r.text = "q(x, y, z) :- knows(x, y), knows(y, z), knows(z, x)";
          break;
        case 2:
          r.language = QueryLanguage::kCrpq;
          r.text = "q(x, y, z, w) :- knows(x, y), knows(y, z), knows(z, w), "
                   "knows(w, x)";
          break;
        case 3:
          r.language = QueryLanguage::kCrpq;
          r.text = "q(x, y, z) :- Transfer(x, y), Transfer(y, z), "
                   "Transfer(z, x)";
          break;
        case 4:
          r.language = QueryLanguage::kCoreGql;
          r.text = "MATCH (x:Account)-[t:Transfer]->(y) WHERE x.blocked = "
                   "true RETURN x, t, y";
          break;
        case 5:
          r.language = QueryLanguage::kCoreGql;
          r.text = "MATCH (p:Person)-[:owns]->(a), (p)-[:knows]->(f) WHERE "
                   "p.age = 33 RETURN p, a, f";
          break;
        default: {
          // K cycles over 16 fixed accounts, so the plan cache always hits.
          const size_t k = (next_ / std::size(kAnalyticsNames)) %
                           kAnchoredAccounts;
          r.language = QueryLanguage::kCrpq;
          r.text = "q(b, c) :- Transfer(@" +
                   Account(k * bank_->size.accounts / kAnchoredAccounts) +
                   ", b), Transfer(b, c)";
          break;
        }
      }
      break;
    case WorkloadKind::kPaths: {
      r.language = QueryLanguage::kPaths;
      switch (t) {
        case 0:
          r.mode = PathMode::kShortest;
          r.text = "Transfer+";
          DrawConnectedPair(6, kAnyAmount, &r);
          break;
        case 1:
          r.mode = PathMode::kTrail;
          r.text = "Transfer{1,4}";
          DrawConnectedPair(4, kAnyAmount, &r);
          break;
        case 2:
          r.mode = PathMode::kSimple;
          r.text = "Transfer{1,5}";
          DrawConnectedPair(5, kAnyAmount, &r);
          break;
        default:
          // The data filter of the paper's detour: a dl-RPQ whose test
          // runs on every traversed edge.
          r.mode = PathMode::kShortest;
          r.text = "( ()[Transfer][amount < 30000] )+ ()";
          DrawConnectedPair(8, 30000, &r);
          break;
      }
      break;
    }
  }
  return r;
}

void ReadGenerator::DrawConnectedPair(size_t hops, uint32_t max_amount,
                                      ReadRequest* r) {
  // Endpoints `hops` random Transfer steps apart (over edges the template's
  // filter admits), so every pair is connected. Uniform pairs are often
  // unreachable, and a search that cannot stop early costs up to 10^4
  // times the median — a tail a few requests per run cannot average out.
  const size_t accounts = bank_->size.accounts;
  for (int attempt = 0; attempt < 64; ++attempt) {
    const size_t from = Below(rng_, accounts);
    size_t at = from;
    size_t step = 0;
    for (; step < hops; ++step) {
      const std::vector<BankGraph::Hop>& out = bank_->transfers[at];
      size_t admitted = 0;
      for (const BankGraph::Hop& h : out) admitted += h.amount < max_amount;
      if (admitted == 0) break;
      size_t pick = Below(rng_, admitted);
      for (const BankGraph::Hop& h : out) {
        if (h.amount < max_amount && pick-- == 0) {
          at = h.to;
          break;
        }
      }
    }
    if (step == hops && at != from) {
      r->from = Account(from);
      r->to = Account(at);
      return;
    }
  }
  // Tiny graphs may have no such walk; any distinct pair will do.
  const size_t from = Below(rng_, accounts);
  r->from = Account(from);
  r->to = Account((from + 1) % accounts);
}

ReadRequest ReadGenerator::Next() {
  const int t = static_cast<int>(next_ % NumTemplates(kind_));
  ReadRequest r = Make(t);
  ++next_;
  return r;
}

std::vector<ReadRequest> ReadGenerator::Sample(size_t per_template) {
  std::vector<ReadRequest> out;
  const size_t templates = NumTemplates(kind_);
  for (size_t i = 0; i < per_template; ++i) {
    for (size_t t = 0; t < templates; ++t) {
      next_ = i * templates + t;
      ReadRequest r = Make(static_cast<int>(t));
      bool seen = false;
      for (const ReadRequest& o : out) {
        seen = seen || (o.text == r.text && o.from == r.from && o.to == r.to);
      }
      if (!seen) out.push_back(std::move(r));
    }
  }
  return out;
}

WriteGenerator::WriteGenerator(const BankSize& bank, uint64_t seed)
    : bank_(bank), rng_(Mix(seed ^ 0x77726974ULL)) {}

std::vector<std::string> WriteGenerator::NextBatch() {
  pending_adds_.clear();
  pending_deletes_.clear();
  std::vector<std::string> ops;
  if (batches_ % 4 == 3 && alive_.size() >= kOpsPerBatch) {
    for (size_t i = 0; i < kOpsPerBatch; ++i) {
      const size_t pick = Below(rng_, alive_.size());
      std::swap(alive_[pick], alive_.back());
      pending_deletes_.push_back(std::move(alive_.back()));
      alive_.pop_back();
      ops.push_back("del-edge " + pending_deletes_.back());
    }
  } else {
    for (size_t i = 0; i < kOpsPerBatch; ++i) {
      std::string name = "w" + std::to_string(next_edge_++);
      ops.push_back("add-edge " + name + " " +
                    Account(Below(rng_, bank_.accounts)) + " " +
                    Account(Below(rng_, bank_.accounts)) + " Transfer");
      pending_adds_.push_back(std::move(name));
    }
  }
  ++batches_;
  return ops;
}

bool ParseBatch(const std::vector<std::string>& lines, MutationBatch* batch,
                std::string* error) {
  for (const std::string& line : lines) {
    Result<MutationOp> op = ParseMutationOp(line);
    if (!op.ok()) {
      *error = "bad op '" + line + "'";
      return false;
    }
    batch->ops.push_back(std::move(op).value());
  }
  return true;
}

void WriteGenerator::Ack(bool ok) {
  // An unacknowledged batch has no defined outcome; its edges leave the
  // tracked sets so the durability check asserts nothing about them.
  if (!ok) return;
  for (std::string& name : pending_adds_) alive_.push_back(std::move(name));
  for (std::string& name : pending_deletes_) {
    deleted_.push_back(std::move(name));
  }
  pending_adds_.clear();
  pending_deletes_.clear();
}

// --- measurement helpers ----------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  const size_t rank = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))) -
          (q > 0 ? 1 : 0));
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

size_t Samples::Beyond(double q) const {
  const size_t n = values_.size();
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

int64_t SpanLog::Add(const std::string& name, Clock::time_point start,
                     Clock::time_point end, int64_t parent,
                     uint64_t request) {
  Span s;
  s.name = name;
  s.start_us =
      std::chrono::duration<double, std::micro>(start - epoch_).count();
  s.end_us = std::chrono::duration<double, std::micro>(end - epoch_).count();
  s.parent = parent;
  s.request = request;
  spans_.push_back(std::move(s));
  return static_cast<int64_t>(spans_.size()) - 1;
}

std::vector<Metric> SpanLog::SelfTimes() const {
  // Children of each span, then self = duration − union of child intervals
  // clipped to the parent.
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<Metric> out;
  auto slot = [&out](const std::string& name) -> Metric& {
    for (Metric& m : out) {
      if (m.name == name) return m;
    }
    out.push_back(Metric{name, 0, "ms", 0});
    return out.back();
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<double, double>> covered;
    for (size_t c : children[i]) {
      covered.emplace_back(std::max(s.start_us, spans_[c].start_us),
                           std::min(s.end_us, spans_[c].end_us));
    }
    std::sort(covered.begin(), covered.end());
    double busy = 0, reach = s.start_us;
    for (const auto& [a, b] : covered) {
      const double from = std::max(a, reach);
      if (b > from) {
        busy += b - from;
        reach = b;
      }
    }
    Metric& m = slot("self_ms." + s.name);
    m.value += (s.end_us - s.start_us - busy) / 1000.0;
    ++m.samples;
  }
  for (Metric& m : out) m.value /= static_cast<double>(m.samples);
  return out;
}

std::string SpanLog::ToJson(size_t max_spans) const {
  std::string out = "{\"spans\": [";
  const size_t n = std::min(max_spans, spans_.size());
  char buf[160];
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    snprintf(buf, sizeof(buf),
             "\"start_us\": %.3f, \"end_us\": %.3f, \"parent\": %lld, "
             "\"request\": %llu}",
             s.start_us, s.end_us, static_cast<long long>(s.parent),
             static_cast<unsigned long long>(s.request));
    out += std::string(i == 0 ? "\n" : ",\n") + "  {\"name\": \"" +
           JsonEscape(s.name) + "\", " + buf;
  }
  out += "\n], \"total_spans\": " + std::to_string(spans_.size()) +
         ", \"written_spans\": " + std::to_string(n) + "}\n";
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace gqzoo::e2e
