#include "src/fuzz/oracle.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

#include "src/automata/nfa.h"
#include "src/coregql/group_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/crpq/modes.h"
#include "src/datatest/dl_eval.h"
#include "src/fuzz/reference.h"
#include "src/graph/csr.h"
#include "src/graph/graph_io.h"
#include "src/regex/parser.h"
#include "src/rpq/bag_semantics.h"
#include "src/rpq/rpq_eval.h"
#include "src/storage/snapshot_format.h"
#include "src/util/failpoint.h"
#include "src/util/query_context.h"

namespace gqzoo {
namespace fuzz {

namespace {

constexpr size_t kMaxDetail = 400;

std::string Brief(std::string s) {
  if (s.size() > kMaxDetail) {
    s.resize(kMaxDetail);
    s += "...";
  }
  return s;
}

std::string PairsBrief(const EdgeLabeledGraph& g,
                       const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::ostringstream out;
  out << pairs.size() << " pairs:";
  size_t shown = 0;
  for (const auto& [u, v] : pairs) {
    if (shown++ >= 8) {
      out << " ...";
      break;
    }
    out << " (" << g.NodeName(u) << "," << g.NodeName(v) << ")";
  }
  return out.str();
}

/// Whether the bag-counting semantics covers every atom of `r` (no inverse
/// atoms — the counter walks forward only — and no data tests).
bool BagSafe(const Regex& r) {
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return true;
    case Regex::Op::kAtom:
      return !r.atom().inverse && !r.atom().is_test() &&
             !r.atom().capture.has_value();
    case Regex::Op::kConcat:
    case Regex::Op::kUnion:
      return BagSafe(*r.left()) && BagSafe(*r.right());
    case Regex::Op::kStar:
    case Regex::Op::kPlus:
    case Regex::Op::kOptional:
      return BagSafe(*r.child());
  }
  return false;
}

ResourceBudgets CaseBudgets(const FuzzCase& c) {
  ResourceBudgets budgets;
  budgets.steps = c.step_budget;
  budgets.memory_bytes = c.memory_budget;
  return budgets;
}

/// What the engine is expected to do with this case, as observed by the
/// library-level run: succeed, or fail with exactly this code.
using ExpectedStatus = std::optional<ErrorCode>;

class OracleRun {
 public:
  OracleRun(const FuzzCase& c, const OracleOptions& options,
            const PropertyGraph& g, OracleReport* report)
      : c_(c),
        options_(options),
        g_(g),
        snap_(g),
        report_(report) {}

  void Run() {
    CheckMappedEpoch();
    ExpectedStatus expected;
    switch (c_.language) {
      case QueryLanguage::kRpq: expected = CheckRpq(); break;
      case QueryLanguage::kCrpq: expected = CheckCrpq(); break;
      case QueryLanguage::kDlCrpq: expected = CheckDlCrpq(); break;
      case QueryLanguage::kCoreGql: expected = CheckCoreGql(); break;
      case QueryLanguage::kGqlGroup: expected = CheckGqlGroup(); break;
      case QueryLanguage::kPaths: expected = CheckPaths(); break;
      case QueryLanguage::kRegular:
        // Regular queries mutate a working copy of the graph; the harness
        // does not generate these.
        return;
    }
    CheckEngine(expected);
  }

 private:
  bool Check(bool agree, const std::string& check, const std::string& detail) {
    ++report_->checks;
    if (!agree) report_->Add(check, Brief(detail));
    return agree;
  }

  /// A comparison against the definitional reference, which reports
  /// nullopt when it ran out of its work budget (counted, not compared).
  /// `agree(ref)` decides; `describe(ref)` explains a disagreement.
  template <typename T, typename Agree, typename Describe>
  void CheckReference(const std::string& check, const std::optional<T>& ref,
                      Agree agree, Describe describe) {
    if (!ref.has_value()) {
      ++report_->reference_checks[check + ".inconclusive"];
      return;
    }
    ++report_->reference_checks[check];
    const bool ok = agree(*ref);
    Check(ok, check, ok ? std::string() : describe(*ref));
  }

  /// Serialize -> mmap -> query: round-trip the case graph through the
  /// on-disk snapshot format and reconstitute an epoch served by mapped
  /// accessors. Any encode/open failure or render difference is a
  /// divergence; on success every language check gains a snapshot-vs-mapped
  /// leg evaluated over the mapped graph + mapped CSR snapshot.
  void CheckMappedEpoch() {
    Result<storage::SnapshotFile> file = storage::SnapshotFile::FromBytes(
        storage::SnapshotCodec::EncodeSnapshot(g_, 0));
    Result<storage::MappedGraph> m =
        file.ok() ? storage::SnapshotCodec::Open(std::move(file).value())
                  : file.error();
    ++report_->checks;
    if (!m.ok()) {
      report_->Add("mapped.open",
                   Brief("snapshot round-trip failed: " + m.error().message()));
      return;
    }
    mapped_ = std::move(m).value();
    have_mapped_ =
        Check(PropertyGraphToText(*mapped_.graph) == PropertyGraphToText(g_),
              "mapped.render",
              "mapped epoch renders differently from the source graph");
  }

  // --- Library-level matrices, one per language. Each returns the status
  // --- the engine must reproduce for the same case.

  ExpectedStatus CheckRpq() {
    Result<RegexPtr> parsed = ParseRegex(c_.query_text, RegexDialect::kPlain);
    if (!parsed.ok()) return ErrorCode::kParse;
    report_->parsed = true;
    const Regex& regex = *parsed.value();
    Nfa nfa = Nfa::FromRegex(regex, g_.skeleton());

    const auto base = EvalRpq(snap_, nfa);
    CheckReference<std::vector<std::pair<NodeId, NodeId>>>(
        "rpq.reference", ReferenceRpq(g_.skeleton(), regex),
        [&](const auto& ref) { return base == ref; },
        [&](const auto& ref) {
          return "snapshot: " + PairsBrief(g_.skeleton(), base) +
                 " | reference: " + PairsBrief(g_.skeleton(), ref);
        });
    if (have_mapped_) {
      const auto from_mapped = EvalRpq(*mapped_.snapshot, nfa);
      Check(base == from_mapped, "rpq.snapshot-vs-mapped",
            "snapshot: " + PairsBrief(g_.skeleton(), base) +
                " | mapped: " + PairsBrief(g_.skeleton(), from_mapped));
    }

    ParallelRpqOptions par;
    par.pool = options_.pool;
    par.num_shards = options_.rpq_shards;
    const auto sharded = EvalRpqParallel(snap_, nfa, par);
    Check(base == sharded, "rpq.serial-vs-sharded",
          "serial: " + PairsBrief(g_.skeleton(), base) +
              " | sharded: " + PairsBrief(g_.skeleton(), sharded));

    Check(base == EvalRpq(snap_, nfa), "rpq.rerun-determinism",
          "two ungoverned runs returned different relations");

    if (options_.bag_checks && g_.NumNodes() <= 8 && BagSafe(regex)) {
      for (NodeId u = 0; u < g_.NumNodes(); ++u) {
        for (NodeId v = 0; v < g_.NumNodes(); ++v) {
          const BigUint count = BagCount(regex, snap_, u, v);
          const bool in_set = std::binary_search(
              base.begin(), base.end(), std::make_pair(u, v));
          if (!Check(!count.is_zero() == in_set, "bag.positivity-vs-set",
                     "(" + std::string(g_.NodeName(u)) + "," +
                         std::string(g_.NodeName(v)) + "): bag count " +
                         count.ToString() + " but set membership " +
                         (in_set ? "true" : "false"))) {
            return std::nullopt;  // one report per case is enough
          }
        }
      }
    }

    if (c_.step_budget != 0 || c_.memory_budget != 0) {
      QueryContext ctx1, ctx2;
      ctx1.set_budgets(CaseBudgets(c_));
      ctx2.set_budgets(CaseBudgets(c_));
      const auto run1 = EvalRpq(snap_, nfa, &ctx1);
      const auto run2 = EvalRpq(snap_, nfa, &ctx2);
      Check(run1 == run2 && ctx1.stop_cause() == ctx2.stop_cause(),
            "rpq.governed-determinism",
            std::string("same budget, different outcome: ") +
                StopCauseName(ctx1.stop_cause()) + "/" +
                std::to_string(run1.size()) + " vs " +
                StopCauseName(ctx2.stop_cause()) + "/" +
                std::to_string(run2.size()));
    }
    return std::nullopt;
  }

  /// Compares a base run against variants: the same error code, or the
  /// same rendering (which covers truncation too).
  template <typename T>
  ExpectedStatus CompareRuns(
      const std::string& prefix, const Result<T>& base,
      const std::vector<std::pair<const char*, Result<T>>>& variants) {
    for (const auto& [name, variant] : variants) {
      const std::string check = prefix + "." + name;
      if (base.ok() != variant.ok()) {
        Check(false, check,
              base.ok()
                  ? "base succeeded but variant failed: " +
                        variant.error().message()
                  : "base failed but variant succeeded: " +
                        base.error().message());
      } else if (!base.ok()) {
        Check(base.error().code() == variant.error().code(), check,
              std::string("error codes differ: ") +
                  ErrorCodeName(base.error().code()) + " vs " +
                  ErrorCodeName(variant.error().code()));
      } else {
        const std::string a = Render(base.value());
        const std::string b = Render(variant.value());
        Check(a == b, check, "base:\n" + a + "variant:\n" + b);
      }
    }
    if (!base.ok()) return base.error().code();
    return std::nullopt;
  }

  std::string Render(const CrpqResult& r) const {
    return r.ToString(g_.skeleton()) + (r.truncated ? "(truncated)\n" : "");
  }

  std::string Render(const CoreQueryResult& r) const {
    return r.relation.ToString(g_.skeleton()) +
           (r.truncated ? "(truncated)\n" : "");
  }

  std::string Render(const GqlEvalResult& r) const {
    std::string out;
    for (const GqlPathRow& row : r.rows) {
      out += row.path.ToString(g_.skeleton());
      for (const auto& [var, value] : row.mu) {
        out += " | " + var + " -> " + value.ToString(g_.skeleton());
      }
      out += "\n";
    }
    return out + (r.truncated ? "(truncated)\n" : "");
  }

  ExpectedStatus CheckCrpq() {
    Result<Crpq> q = ParseCrpq(c_.query_text, RegexDialect::kPlain);
    if (!q.ok()) return ErrorCode::kParse;
    report_->parsed = true;

    CrpqEvalOptions base_options;
    base_options.max_bindings_per_pair = options_.max_bindings_per_pair;
    base_options.max_path_length = options_.max_path_length;
    base_options.snapshot = &snap_;
    Result<CrpqResult> base = EvalCrpq(g_.skeleton(), q.value(), base_options);

    CrpqEvalOptions sharded_options = base_options;
    sharded_options.pool = options_.pool;
    sharded_options.num_shards = options_.rpq_shards;

    std::vector<std::pair<const char*, Result<CrpqResult>>> variants;
    variants.emplace_back("serial-vs-sharded",
                          EvalCrpq(g_.skeleton(), q.value(), sharded_options));
    variants.emplace_back("rerun-determinism",
                          EvalCrpq(g_.skeleton(), q.value(), base_options));
    CrpqEvalOptions batch_options = base_options;
    batch_options.use_batch = true;
    variants.emplace_back("row-vs-batch",
                          EvalCrpq(g_.skeleton(), q.value(), batch_options));
    if (have_mapped_) {
      CrpqEvalOptions mapped_options = base_options;
      mapped_options.snapshot = mapped_.snapshot.get();
      variants.emplace_back(
          "snapshot-vs-mapped",
          EvalCrpq(mapped_.graph->skeleton(), q.value(), mapped_options));
    }
    ExpectedStatus expected = CompareRuns("crpq", base, variants);

    if (base.ok()) {
      CheckReference<std::vector<std::vector<CrpqValue>>>(
          "crpq.reference",
          ReferenceCrpq(g_.skeleton(), q.value(), options_.max_path_length),
          [&](const auto& ref) {
            std::vector<std::vector<CrpqValue>> rows = base.value().rows;
            std::sort(rows.begin(), rows.end());
            // A truncated evaluation keeps some of the answers over paths
            // of at most max_path_length edges; it must never invent one.
            return base.value().truncated
                       ? std::includes(ref.begin(), ref.end(), rows.begin(),
                                       rows.end())
                       : rows == ref;
          },
          [&](const auto& ref) {
            const CrpqResult reference{base.value().head, ref, false};
            return "evaluator" +
                   std::string(base.value().truncated ? " (truncated)" : "") +
                   ":\n" + base.value().ToString(g_.skeleton()) +
                   "reference:\n" + reference.ToString(g_.skeleton());
          });
    }

    if (base.ok() && (c_.step_budget != 0 || c_.memory_budget != 0)) {
      QueryContext ctx1, ctx2;
      ctx1.set_budgets(CaseBudgets(c_));
      ctx2.set_budgets(CaseBudgets(c_));
      CrpqEvalOptions governed = base_options;
      governed.cancel = &ctx1;
      Result<CrpqResult> run1 = EvalCrpq(g_.skeleton(), q.value(), governed);
      governed.cancel = &ctx2;
      Result<CrpqResult> run2 = EvalCrpq(g_.skeleton(), q.value(), governed);
      CompareRuns<CrpqResult>("crpq.governed-determinism", run1,
                              {{"rerun", std::move(run2)}});
      Check(ctx1.stop_cause() == ctx2.stop_cause(),
            "crpq.governed-determinism.cause",
            std::string(StopCauseName(ctx1.stop_cause())) + " vs " +
                StopCauseName(ctx2.stop_cause()));
    }
    return expected;
  }

  ExpectedStatus CheckDlCrpq() {
    Result<Crpq> q = ParseCrpq(c_.query_text, RegexDialect::kDl);
    if (!q.ok()) return ErrorCode::kParse;
    report_->parsed = true;

    DlCrpqEvalOptions base_options;
    base_options.max_bindings_per_pair = options_.max_bindings_per_pair;
    base_options.max_path_length = options_.max_path_length;
    base_options.snapshot = &snap_;
    Result<CrpqResult> base = EvalDlCrpq(g_, q.value(), base_options);

    std::vector<std::pair<const char*, Result<CrpqResult>>> variants;
    variants.emplace_back("rerun-determinism",
                          EvalDlCrpq(g_, q.value(), base_options));
    DlCrpqEvalOptions batch_options = base_options;
    batch_options.use_batch = true;
    variants.emplace_back("row-vs-batch",
                          EvalDlCrpq(g_, q.value(), batch_options));
    if (have_mapped_) {
      DlCrpqEvalOptions mapped_options = base_options;
      mapped_options.snapshot = mapped_.snapshot.get();
      variants.emplace_back(
          "snapshot-vs-mapped",
          EvalDlCrpq(*mapped_.graph, q.value(), mapped_options));
    }
    ExpectedStatus expected = CompareRuns("dlcrpq", base, variants);

    if (base.ok() && (c_.step_budget != 0 || c_.memory_budget != 0)) {
      QueryContext ctx1, ctx2;
      ctx1.set_budgets(CaseBudgets(c_));
      ctx2.set_budgets(CaseBudgets(c_));
      DlCrpqEvalOptions governed = base_options;
      governed.cancel = &ctx1;
      Result<CrpqResult> run1 = EvalDlCrpq(g_, q.value(), governed);
      governed.cancel = &ctx2;
      Result<CrpqResult> run2 = EvalDlCrpq(g_, q.value(), governed);
      CompareRuns<CrpqResult>("dlcrpq.governed-determinism", run1,
                              {{"rerun", std::move(run2)}});
      Check(ctx1.stop_cause() == ctx2.stop_cause(),
            "dlcrpq.governed-determinism.cause",
            std::string(StopCauseName(ctx1.stop_cause())) + " vs " +
                StopCauseName(ctx2.stop_cause()));
    }
    return expected;
  }

  ExpectedStatus CheckCoreGql() {
    Result<CoreGqlQuery> q = ParseCoreGqlQuery(c_.query_text);
    if (!q.ok()) return ErrorCode::kParse;
    report_->parsed = true;

    CoreQueryEvalOptions base_options;
    base_options.path_options.max_results = options_.max_results;
    base_options.path_options.max_path_length = options_.max_path_length;
    base_options.path_options.snapshot = &snap_;
    Result<CoreQueryResult> base =
        EvalCoreGqlQuery(g_, q.value(), base_options);

    std::vector<std::pair<const char*, Result<CoreQueryResult>>> variants;
    variants.emplace_back("rerun-determinism",
                          EvalCoreGqlQuery(g_, q.value(), base_options));
    CoreQueryEvalOptions batch_options = base_options;
    batch_options.use_batch = true;
    variants.emplace_back("row-vs-batch",
                          EvalCoreGqlQuery(g_, q.value(), batch_options));
    if (have_mapped_) {
      CoreQueryEvalOptions mapped_options = base_options;
      mapped_options.path_options.snapshot = mapped_.snapshot.get();
      variants.emplace_back(
          "snapshot-vs-mapped",
          EvalCoreGqlQuery(*mapped_.graph, q.value(), mapped_options));
    }
    return CompareRuns("coregql", base, variants);
  }

  ExpectedStatus CheckGqlGroup() {
    Result<CorePatternPtr> pattern = ParseCorePattern(c_.query_text);
    if (!pattern.ok()) return ErrorCode::kParse;
    report_->parsed = true;

    CorePathEvalOptions base_options;
    base_options.max_results = options_.max_results;
    base_options.max_path_length = options_.max_path_length;
    base_options.snapshot = &snap_;
    Result<GqlEvalResult> base =
        EvalGqlGroupPattern(g_, *pattern.value(), base_options);

    std::vector<std::pair<const char*, Result<GqlEvalResult>>> variants;
    variants.emplace_back(
        "rerun-determinism",
        EvalGqlGroupPattern(g_, *pattern.value(), base_options));
    if (have_mapped_) {
      CorePathEvalOptions mapped_options = base_options;
      mapped_options.snapshot = mapped_.snapshot.get();
      variants.emplace_back(
          "snapshot-vs-mapped",
          EvalGqlGroupPattern(*mapped_.graph, *pattern.value(),
                              mapped_options));
    }
    return CompareRuns("gqlgroup", base, variants);
  }

  ExpectedStatus CheckPaths() {
    // Mirror the engine's dialect resolution exactly: dl first, then
    // plain (plan.cc); a mismatch here would be a false divergence.
    Result<RegexPtr> dl = ParseRegex(c_.query_text, RegexDialect::kDl);
    std::optional<DlNfa> dl_nfa;
    std::optional<Nfa> nfa;
    RegexPtr plain;
    if (dl.ok()) {
      dl_nfa = DlNfa::FromRegex(*dl.value(), g_);
    } else {
      Result<RegexPtr> parsed =
          ParseRegex(c_.query_text, RegexDialect::kPlain);
      if (!parsed.ok()) return ErrorCode::kParse;
      plain = parsed.value();
      nfa = Nfa::FromRegex(*plain, g_.skeleton());
    }
    report_->parsed = true;

    std::optional<NodeId> u = g_.FindNode(c_.paths_from);
    std::optional<NodeId> v = g_.FindNode(c_.paths_to);
    if (!u.has_value() || !v.has_value()) return ErrorCode::kNotFound;
    // Path enumeration is one-way (PMRs have no inverse transitions); the
    // engine rejects these up front and so do we.
    if (nfa.has_value() && nfa->HasInverse()) {
      return ErrorCode::kInvalidArgument;
    }

    EnumerationLimits limits;
    limits.max_results = options_.max_results;
    limits.max_length = options_.max_path_length;
    auto collect = [&](const PropertyGraph& g, const GraphSnapshot& snapshot,
                       const EnumerationLimits& lim, EnumerationStats* stats) {
      return dl_nfa.has_value()
                 ? DlEvaluator(g, *dl_nfa, &snapshot)
                       .CollectModePaths(*u, *v, c_.paths_mode, lim, stats)
                 : CollectModePaths(snapshot, *nfa, *u, *v, c_.paths_mode,
                                    lim, stats);
    };

    EnumerationStats stats;
    const std::vector<PathBinding> base = collect(g_, snap_, limits, &stats);
    if (have_mapped_) {
      EnumerationStats stats_mapped;
      const std::vector<PathBinding> from_mapped =
          collect(*mapped_.graph, *mapped_.snapshot, limits, &stats_mapped);
      Check(base == from_mapped && stats.truncated == stats_mapped.truncated,
            "paths.snapshot-vs-mapped",
            std::to_string(base.size()) + " paths vs " +
                std::to_string(from_mapped.size()) + " paths (truncated " +
                std::to_string(stats.truncated) + "/" +
                std::to_string(stats_mapped.truncated) + ")");
    }
    // The reference speaks the plain dialect's path semantics only
    // (dl-RPQ paths may start and end with edges).
    if (plain != nullptr) {
      CheckReference<std::vector<PathBinding>>(
          "paths.reference",
          ReferenceModePaths(g_.skeleton(), *plain, *u, *v, c_.paths_mode,
                             options_.max_path_length),
          [&](const auto& ref) {
            // A truncated enumeration keeps some of the paths of at most
            // max_path_length edges; it must never invent one.
            return stats.truncated ? std::includes(ref.begin(), ref.end(),
                                                   base.begin(), base.end())
                                   : base == ref;
          },
          [&](const auto& ref) {
            return std::to_string(base.size()) + " paths" +
                   (stats.truncated ? " (truncated)" : "") + " vs " +
                   std::to_string(ref.size()) + " reference paths";
          });
    }

    if (c_.step_budget != 0 || c_.memory_budget != 0) {
      QueryContext ctx1, ctx2;
      ctx1.set_budgets(CaseBudgets(c_));
      ctx2.set_budgets(CaseBudgets(c_));
      EnumerationLimits governed = limits;
      governed.cancel = &ctx1;
      std::vector<PathBinding> run1 = collect(g_, snap_, governed, nullptr);
      governed.cancel = &ctx2;
      std::vector<PathBinding> run2 = collect(g_, snap_, governed, nullptr);
      Check(run1 == run2 && ctx1.stop_cause() == ctx2.stop_cause(),
            "paths.governed-determinism",
            std::string("same budget, different outcome: ") +
                StopCauseName(ctx1.stop_cause()) + "/" +
                std::to_string(run1.size()) + " vs " +
                StopCauseName(ctx2.stop_cause()) + "/" +
                std::to_string(run2.size()));
    }
    return std::nullopt;
  }

  // --- Engine-level matrix.

  void CheckEngine(ExpectedStatus expected) {
    if (!options_.engine_checks || options_.engine == nullptr) return;
    QueryEngine& engine = *options_.engine;
    engine.SetGraph(g_);  // epoch bump: the next Execute compiles cold

    QueryRequest request = c_.ToRequest();
    request.max_results = options_.max_results;
    request.max_path_length = options_.max_path_length;

    Result<QueryResponse> cold = engine.Execute(request);

    // Library status vs engine status: same outcome, same ErrorCode.
    if (expected.has_value()) {
      Check(!cold.ok() && cold.error().code() == *expected,
            "engine.status-vs-library",
            cold.ok() ? std::string("library expected ") +
                            ErrorCodeName(*expected) +
                            " but engine succeeded"
                      : std::string("library expected ") +
                            ErrorCodeName(*expected) + " but engine said " +
                            ErrorCodeName(cold.error().code()) + ": " +
                            cold.error().message());
    } else {
      Check(cold.ok(), "engine.status-vs-library",
            cold.ok() ? std::string()
                      : "library succeeded but engine failed: " +
                            std::string(
                                ErrorCodeName(cold.error().code())) +
                            ": " + cold.error().message());
    }

    // Cold vs cached plan: byte-identical response off the warm cache.
    Result<QueryResponse> warm = engine.Execute(request);
    if (cold.ok() != warm.ok()) {
      Check(false, "engine.cold-vs-cached",
            cold.ok() ? "cold ok but cached failed: " + warm.error().message()
                      : "cold failed but cached ok");
    } else if (!cold.ok()) {
      Check(cold.error().code() == warm.error().code(),
            "engine.cold-vs-cached",
            std::string("error codes differ: ") +
                ErrorCodeName(cold.error().code()) + " vs " +
                ErrorCodeName(warm.error().code()));
    } else {
      Check(warm.value().cache_hit, "engine.cold-vs-cached",
            "second execution missed the plan cache");
      Check(cold.value().text == warm.value().text &&
                cold.value().num_rows == warm.value().num_rows &&
                cold.value().truncated == warm.value().truncated,
            "engine.cold-vs-cached",
            "cold:\n" + cold.value().text + "cached:\n" + warm.value().text);
    }

    // Planner order vs textual order.
    QueryRequest textual_request = request;
    textual_request.textual_join_order = true;
    Result<QueryResponse> textual = engine.Execute(textual_request);
    if (cold.ok() != textual.ok()) {
      Check(false, "engine.planner-vs-textual",
            cold.ok()
                ? "planned ok but textual failed: " + textual.error().message()
                : "planned failed but textual ok");
    } else if (!cold.ok()) {
      Check(cold.error().code() == textual.error().code(),
            "engine.planner-vs-textual",
            std::string("error codes differ: ") +
                ErrorCodeName(cold.error().code()) + " vs " +
                ErrorCodeName(textual.error().code()));
    } else if (!cold.value().truncated && !textual.value().truncated) {
      // Under set semantics without truncation the join order is
      // invisible in the result.
      Check(cold.value().text == textual.value().text,
            "engine.planner-vs-textual",
            "planned:\n" + cold.value().text + "textual:\n" +
                textual.value().text);
    }

    // Execution-time kernel policy: every case runs with the wcoj path
    // forced on and forced off, and with the columnar batch kernel forced
    // on — the choice of join kernel must be invisible in the rendered
    // result. On cyclic-core cases (query_gen cyclic_percent) the wcoj
    // legs genuinely diverge in execution strategy; elsewhere the planner
    // selects no group and the legs double as no-op coverage.
    if (c_.language == QueryLanguage::kCrpq ||
        c_.language == QueryLanguage::kDlCrpq ||
        c_.language == QueryLanguage::kCoreGql) {
      struct KernelLeg {
        const char* check;
        bool wcoj;
        bool batch;
      };
      const KernelLeg kLegs[] = {
          {"engine.wcoj-vs-binary", false, false},
          {"engine.batch-vs-row", true, true},
          {"engine.wcoj-off-batch-on", false, true},
      };
      QueryRequest base_request = request;
      base_request.use_wcoj = true;
      base_request.use_batch_kernel = false;
      Result<QueryResponse> base_run = engine.Execute(base_request);
      for (const KernelLeg& leg : kLegs) {
        QueryRequest toggled = request;
        toggled.use_wcoj = leg.wcoj;
        toggled.use_batch_kernel = leg.batch;
        Result<QueryResponse> run = engine.Execute(toggled);
        if (base_run.ok() != run.ok()) {
          Check(false, leg.check,
                base_run.ok()
                    ? "wcoj-on/batch-off ok but toggled leg failed: " +
                          run.error().message()
                    : "wcoj-on/batch-off failed but toggled leg ok: " +
                          base_run.error().message());
        } else if (!base_run.ok()) {
          Check(base_run.error().code() == run.error().code(), leg.check,
                std::string("error codes differ: ") +
                    ErrorCodeName(base_run.error().code()) + " vs " +
                    ErrorCodeName(run.error().code()));
        } else if (!base_run.value().truncated && !run.value().truncated) {
          Check(base_run.value().text == run.value().text, leg.check,
                "base:\n" + base_run.value().text + "toggled:\n" +
                    run.value().text);
        }
      }
    }

    // WHERE-pushdown on/off (CoreGQL only; the response prefixes a
    // "(pushdown: ...)" header line that the comparison strips).
    if (c_.language == QueryLanguage::kCoreGql && cold.ok()) {
      QueryRequest optimized_request = request;
      optimized_request.optimize = true;
      Result<QueryResponse> optimized = engine.Execute(optimized_request);
      if (!optimized.ok()) {
        Check(false, "engine.pushdown",
              "pushdown leg failed: " + optimized.error().message());
      } else if (!cold.value().truncated && !optimized.value().truncated) {
        std::string text = optimized.value().text;
        if (text.rfind("(pushdown:", 0) == 0) {
          size_t eol = text.find('\n');
          text = eol == std::string::npos ? "" : text.substr(eol + 1);
        }
        Check(cold.value().text == text &&
                  cold.value().num_rows == optimized.value().num_rows,
              "engine.pushdown",
              "plain:\n" + cold.value().text + "pushdown:\n" + text);
      }
    }

    if (options_.error_parity) {
      CheckGovernedLegs(request, cold);
      CheckFailpointLegs(request, cold);
    }
  }

  /// Budget injection: in every join order the governed run must either
  /// reproduce the ungoverned outcome or trip as RESOURCE_EXHAUSTED —
  /// never a different answer, never a different error class.
  void CheckGovernedLegs(const QueryRequest& request,
                         const Result<QueryResponse>& cold) {
    if (c_.step_budget == 0 && c_.memory_budget == 0) return;
    for (bool textual : {false, true}) {
      QueryRequest governed = request;
      governed.textual_join_order = textual;
      if (c_.step_budget != 0) governed.step_budget = c_.step_budget;
      if (c_.memory_budget != 0) governed.memory_budget = c_.memory_budget;
      Result<QueryResponse> run = options_.engine->Execute(governed);
      const char* check =
          textual ? "engine.budget-parity.textual" : "engine.budget-parity";
      if (run.ok()) {
        Check(cold.ok(), check,
              cold.ok() ? std::string()
                        : "governed run succeeded but ungoverned failed: " +
                              cold.error().message());
        if (cold.ok() && !cold.value().truncated && !run.value().truncated) {
          Check(cold.value().text == run.value().text, check,
                "budget did not trip but results differ:\nungoverned:\n" +
                    cold.value().text + "governed:\n" + run.value().text);
        }
      } else {
        const ErrorCode code = run.error().code();
        const bool allowed =
            code == ErrorCode::kResourceExhausted ||
            (!cold.ok() && code == cold.error().code());
        Check(allowed, check,
              std::string("governed run failed with ") + ErrorCodeName(code) +
                  " (ungoverned: " +
                  (cold.ok() ? "OK"
                             : ErrorCodeName(cold.error().code())) +
                  "): " + run.error().message());
      }
    }
  }

  /// Armed fail-points: each site maps to a documented code, and every
  /// join order must surface exactly that code (or complete cleanly if the
  /// site is never reached) — no wrong answers, no other classes.
  void CheckFailpointLegs(const QueryRequest& request,
                          const Result<QueryResponse>& cold) {
    auto run_site = [&](const char* site, ErrorCode expected_code) {
      for (bool textual : {false, true}) {
        ScopedFailpoint fp(site);
        QueryRequest injected = request;
        injected.textual_join_order = textual;
        // A budget forces a governed context, which is what fail-points
        // trip; large enough to never fire on its own.
        injected.memory_budget = uint64_t{1} << 40;
        Result<QueryResponse> run = options_.engine->Execute(injected);
        const char* check = textual ? "engine.failpoint-parity.textual"
                                    : "engine.failpoint-parity";
        if (run.ok()) {
          // Site not on this query's path (e.g. empty seed set, or a
          // planner that selected no wcoj group): must then match the
          // clean run.
          Check(cold.ok(), check,
                cold.ok() ? std::string()
                          : "injected run succeeded but clean run failed: " +
                                cold.error().message());
          if (cold.ok() && !cold.value().truncated &&
              !run.value().truncated) {
            Check(cold.value().text == run.value().text, check,
                  "fail-point skipped but results differ");
          }
        } else {
          const ErrorCode code = run.error().code();
          const bool allowed = code == expected_code ||
                               (!cold.ok() && code == cold.error().code());
          Check(allowed, check,
                std::string(site) + " surfaced as " + ErrorCodeName(code) +
                    " (expected " + ErrorCodeName(expected_code) + "): " +
                    run.error().message());
        }
      }
    };

    const char* site = nullptr;
    ErrorCode expected_code = ErrorCode::kResourceExhausted;
    switch (c_.language) {
      case QueryLanguage::kRpq: site = "rpq.product.bfs"; break;
      case QueryLanguage::kCrpq: site = "crpq.join.alloc"; break;
      case QueryLanguage::kDlCrpq: site = "datatest.recurse"; break;
      case QueryLanguage::kGqlGroup: site = "coregql.frontier"; break;
      case QueryLanguage::kPaths:
        site = "pmr.enumerate.emit";
        expected_code = ErrorCode::kCancelled;
        break;
      default:
        break;  // no per-language fail-point on this plan's hot path
    }
    if (site != nullptr) run_site(site, expected_code);
    // The wcoj result-tuple alloc site sits on the hot path of every
    // language whose planner can select a cyclic core; on acyclic cases it
    // is simply never reached and the leg degrades to a clean-run match.
    if (c_.language == QueryLanguage::kCrpq ||
        c_.language == QueryLanguage::kDlCrpq ||
        c_.language == QueryLanguage::kCoreGql) {
      run_site("crpq.wcoj.alloc", ErrorCode::kResourceExhausted);
    }
  }

  const FuzzCase& c_;
  const OracleOptions& options_;
  const PropertyGraph& g_;
  GraphSnapshot snap_;
  OracleReport* report_;
  /// The case graph round-tripped through the on-disk snapshot format
  /// (CheckMappedEpoch); valid only when have_mapped_.
  storage::MappedGraph mapped_;
  bool have_mapped_ = false;
};

}  // namespace

void OracleReport::Add(const std::string& check, const std::string& detail) {
  divergences.push_back({check, detail});
}

std::string OracleReport::ToString() const {
  std::ostringstream out;
  out << checks << " checks, " << divergences.size() << " divergences";
  for (const Divergence& d : divergences) {
    out << "\n[" << d.check << "] " << d.detail;
  }
  return out.str();
}

OracleReport RunOracle(const FuzzCase& c, const OracleOptions& options) {
  OracleReport report;
  Result<PropertyGraph> parsed = ParseCaseGraph(c);
  if (!parsed.ok()) {
    report.Add("case.graph-parse", Brief(parsed.error().message()));
    return report;
  }
  OracleRun(c, options, parsed.value(), &report).Run();
  return report;
}

}  // namespace fuzz
}  // namespace gqzoo
