#include "src/fuzz/metamorphic.h"

#include <algorithm>
#include <cctype>
#include <utility>

#include "src/automata/nfa.h"
#include "src/coregql/group_eval.h"
#include "src/coregql/pattern_parser.h"
#include "src/coregql/query.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/crpq/modes.h"
#include "src/datatest/dl_eval.h"
#include "src/fuzz/graph_gen.h"
#include "src/regex/parser.h"
#include "src/rpq/rpq_eval.h"

namespace gqzoo {
namespace fuzz {

namespace {

std::string CrpqRowString(const EdgeLabeledGraph& g,
                          const std::vector<CrpqValue>& row) {
  std::string out;
  for (const CrpqValue& v : row) {
    if (!out.empty()) out += ", ";
    out += CrpqValueToString(g, v);
  }
  return out;
}

CanonicalResult CanonCrpq(const EdgeLabeledGraph& g, const CrpqResult& r) {
  CanonicalResult canon;
  canon.truncated = r.truncated;
  for (const auto& row : r.rows) canon.rows.push_back(CrpqRowString(g, row));
  std::sort(canon.rows.begin(), canon.rows.end());
  return canon;
}

std::string BindingString(const EdgeLabeledGraph& g, const PathBinding& pb) {
  return pb.path.ToString(g) + " | " + pb.mu.ToString(g);
}

bool IsSubset(const std::vector<std::string>& small,
              const std::vector<std::string>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

}  // namespace

Result<CanonicalResult> EvalCanonical(const PropertyGraph& g,
                                      const FuzzCase& c,
                                      const OracleOptions& options) {
  CanonicalResult canon;
  const GraphSnapshot snapshot(g);
  switch (c.language) {
    case QueryLanguage::kRpq: {
      Result<RegexPtr> regex =
          ParseRegex(c.query_text, RegexDialect::kPlain);
      if (!regex.ok()) return regex.error();
      Nfa nfa = Nfa::FromRegex(*regex.value(), g.skeleton());
      for (const auto& [u, v] : EvalRpq(snapshot, nfa)) {
        canon.rows.push_back("(" + std::string(g.NodeName(u)) + ", " +
                             std::string(g.NodeName(v)) + ")");
      }
      break;
    }
    case QueryLanguage::kCrpq:
    case QueryLanguage::kDlCrpq: {
      const bool dl = c.language == QueryLanguage::kDlCrpq;
      Result<Crpq> q = ParseCrpq(
          c.query_text, dl ? RegexDialect::kDl : RegexDialect::kPlain);
      if (!q.ok()) return q.error();
      Result<CrpqResult> r = Error(ErrorCode::kGeneric, "unreached");
      if (dl) {
        DlCrpqEvalOptions eval_options;
        eval_options.max_bindings_per_pair = options.max_bindings_per_pair;
        eval_options.max_path_length = options.max_path_length;
        eval_options.snapshot = &snapshot;
        r = EvalDlCrpq(g, q.value(), eval_options);
      } else {
        CrpqEvalOptions eval_options;
        eval_options.max_bindings_per_pair = options.max_bindings_per_pair;
        eval_options.max_path_length = options.max_path_length;
        eval_options.snapshot = &snapshot;
        r = EvalCrpq(g.skeleton(), q.value(), eval_options);
      }
      if (!r.ok()) return r.error();
      return CanonCrpq(g.skeleton(), r.value());
    }
    case QueryLanguage::kCoreGql: {
      CoreQueryEvalOptions eval_options;
      eval_options.path_options.max_results = options.max_results;
      eval_options.path_options.max_path_length = options.max_path_length;
      eval_options.path_options.snapshot = &snapshot;
      Result<CoreQueryResult> r = RunCoreGql(g, c.query_text, eval_options);
      if (!r.ok()) return r.error();
      canon.truncated = r.value().truncated;
      for (const auto& row : r.value().relation.rows()) {
        std::string line;
        for (const auto& cell : row) {
          if (!line.empty()) line += ", ";
          line += CoreCellToString(g.skeleton(), cell);
        }
        canon.rows.push_back(std::move(line));
      }
      break;
    }
    case QueryLanguage::kGqlGroup: {
      Result<CorePatternPtr> pattern = ParseCorePattern(c.query_text);
      if (!pattern.ok()) return pattern.error();
      CorePathEvalOptions eval_options;
      eval_options.max_results = options.max_results;
      eval_options.max_path_length = options.max_path_length;
      eval_options.snapshot = &snapshot;
      Result<GqlEvalResult> r =
          EvalGqlGroupPattern(g, *pattern.value(), eval_options);
      if (!r.ok()) return r.error();
      canon.truncated = r.value().truncated;
      for (const GqlPathRow& row : r.value().rows) {
        std::string line = row.path.ToString(g.skeleton());
        for (const auto& [var, value] : row.mu) {
          line += " | " + var + " -> " + value.ToString(g.skeleton());
        }
        canon.rows.push_back(std::move(line));
      }
      break;
    }
    case QueryLanguage::kPaths: {
      // Engine dialect order: dl first, then plain (see plan.cc).
      Result<RegexPtr> dl = ParseRegex(c.query_text, RegexDialect::kDl);
      std::optional<NodeId> u = g.FindNode(c.paths_from);
      std::optional<NodeId> v = g.FindNode(c.paths_to);
      if (!u.has_value() || !v.has_value()) {
        return Error(ErrorCode::kNotFound, "unknown endpoint node");
      }
      EnumerationLimits limits;
      limits.max_results = options.max_results;
      limits.max_length = options.max_path_length;
      EnumerationStats stats;
      std::vector<PathBinding> paths;
      if (dl.ok()) {
        DlNfa nfa = DlNfa::FromRegex(*dl.value(), g);
        paths = DlEvaluator(g, nfa, &snapshot)
                    .CollectModePaths(*u, *v, c.paths_mode, limits, &stats);
      } else {
        Result<RegexPtr> plain =
            ParseRegex(c.query_text, RegexDialect::kPlain);
        if (!plain.ok()) return plain.error();
        Nfa nfa = Nfa::FromRegex(*plain.value(), g.skeleton());
        if (nfa.HasInverse()) {
          return Error(ErrorCode::kInvalidArgument,
                       "path enumeration requires a one-way regex");
        }
        paths = CollectModePaths(snapshot, nfa, *u, *v, c.paths_mode, limits,
                                 &stats);
      }
      canon.truncated = stats.truncated;
      for (const PathBinding& pb : paths) {
        canon.rows.push_back(BindingString(g.skeleton(), pb));
      }
      break;
    }
    case QueryLanguage::kRegular:
      return Error(ErrorCode::kInvalidArgument,
                   "regular queries have no canonical harness evaluation");
  }
  std::sort(canon.rows.begin(), canon.rows.end());
  return canon;
}

std::string RenameLabelsInQuery(
    const std::string& text,
    const std::map<std::string, std::string>& rename) {
  std::string out;
  size_t i = 0;
  auto is_ident = [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) || ch == '_';
  };
  while (i < text.size()) {
    if (!is_ident(text[i])) {
      out += text[i++];
      continue;
    }
    size_t j = i;
    while (j < text.size() && is_ident(text[j])) ++j;
    std::string token = text.substr(i, j - i);
    auto it = rename.find(token);
    out += it == rename.end() ? token : it->second;
    i = j;
  }
  return out;
}

namespace {

class MetamorphicRun {
 public:
  MetamorphicRun(const FuzzCase& c, FuzzRng* rng,
                 const OracleOptions& options, const PropertyGraph& g,
                 OracleReport* report)
      : c_(c), rng_(rng), options_(options), g_(g), report_(report) {}

  void Run(const CanonicalResult& base) {
    CheckLabelRename(base);
    CheckDisjointUnion(base);
    CheckConjunctPermutation();
    CheckEdgeAddition(base);
    CheckUnionIdempotence(base);
  }

 private:
  void Fail(const std::string& check, const std::string& detail) {
    std::string brief = detail;
    if (brief.size() > 400) {
      brief.resize(400);
      brief += "...";
    }
    report_->Add(check, brief);
  }

  void Count() { ++report_->checks; }

  /// Compares a transformed run against expected rows; a transformed-side
  /// error or truncation is itself a violation (the base run was complete
  /// and the transformation preserves the result size or shrinks limits
  /// never).
  void ExpectEqual(const char* check, const Result<CanonicalResult>& got,
                   const std::vector<std::string>& want) {
    Count();
    if (!got.ok()) {
      Fail(check, "transformed run failed: " + got.error().message());
      return;
    }
    if (got.value().truncated) return;  // limit interaction: inconclusive
    if (got.value().rows != want) {
      Fail(check, std::to_string(want.size()) + " rows expected, got " +
                      std::to_string(got.value().rows.size()));
    }
  }

  void CheckLabelRename(const CanonicalResult& base) {
    std::map<std::string, std::string> rename;
    size_t next = 0;
    for (const std::string& label : LabelAlphabet(6)) {
      rename[label] = "lr" + std::to_string(next++);
    }
    for (LabelId l = 0; l < g_.skeleton().NumLabels(); ++l) {
      const std::string& label = g_.skeleton().LabelName(l);
      if (rename.count(label) == 0) {
        rename[label] = "lr" + std::to_string(next++);
      }
    }
    FuzzCase renamed = c_;
    renamed.query_text = RenameLabelsInQuery(c_.query_text, rename);
    ExpectEqual("meta.label-rename",
                EvalCanonical(RenameEdgeLabels(g_, rename), renamed, options_),
                base.rows);
  }

  void CheckDisjointUnion(const CanonicalResult& base) {
    // CRPQ atoms need not share variables, so a cross product can mix the
    // two components and no simple identity holds; skip those.
    if (c_.language == QueryLanguage::kCrpq ||
        c_.language == QueryLanguage::kDlCrpq) {
      return;
    }
    PropertyGraph doubled = DisjointUnion(g_, g_, "u_");
    Result<CanonicalResult> got = EvalCanonical(doubled, c_, options_);
    Count();
    if (!got.ok()) {
      Fail("meta.disjoint-union",
           "union run failed: " + got.error().message());
      return;
    }
    if (got.value().truncated) return;
    switch (c_.language) {
      case QueryLanguage::kPaths:
        // Endpoints live in the first component; a disjoint second
        // component cannot contribute or remove paths.
        if (got.value().rows != base.rows) {
          Fail("meta.disjoint-union",
               "paths changed: " + std::to_string(base.rows.size()) +
                   " -> " + std::to_string(got.value().rows.size()));
        }
        break;
      case QueryLanguage::kRpq:
      case QueryLanguage::kGqlGroup:
        // Components are isomorphic and answers name graph elements, so
        // the answer set doubles exactly.
        if (!IsSubset(base.rows, got.value().rows) ||
            got.value().rows.size() != 2 * base.rows.size()) {
          Fail("meta.disjoint-union",
               std::to_string(base.rows.size()) + " rows should double, got " +
                   std::to_string(got.value().rows.size()));
        }
        break;
      case QueryLanguage::kCoreGql:
        // Property-valued rows (x.k) from the two components dedupe under
        // set semantics: only a superset is guaranteed.
        if (!IsSubset(base.rows, got.value().rows)) {
          Fail("meta.disjoint-union", "union result lost base rows");
        }
        break;
      default:
        break;
    }
  }

  void CheckConjunctPermutation() {
    if (c_.language != QueryLanguage::kCrpq &&
        c_.language != QueryLanguage::kDlCrpq) {
      return;
    }
    const bool dl = c_.language == QueryLanguage::kDlCrpq;
    Result<Crpq> q = ParseCrpq(
        c_.query_text, dl ? RegexDialect::kDl : RegexDialect::kPlain);
    if (!q.ok() || q.value().atoms.size() < 2) return;

    Crpq shuffled = q.value();
    for (size_t i = shuffled.atoms.size(); i > 1; --i) {
      std::swap(shuffled.atoms[i - 1], shuffled.atoms[rng_->Index(i)]);
    }

    const GraphSnapshot snapshot(g_);
    auto eval = [&](const Crpq& query) -> Result<CrpqResult> {
      if (dl) {
        DlCrpqEvalOptions eval_options;
        eval_options.max_bindings_per_pair = options_.max_bindings_per_pair;
        eval_options.max_path_length = options_.max_path_length;
        eval_options.snapshot = &snapshot;
        return EvalDlCrpq(g_, query, eval_options);
      }
      CrpqEvalOptions eval_options;
      eval_options.max_bindings_per_pair = options_.max_bindings_per_pair;
      eval_options.max_path_length = options_.max_path_length;
      eval_options.snapshot = &snapshot;
      return EvalCrpq(g_.skeleton(), query, eval_options);
    };

    Result<CrpqResult> first = eval(q.value());
    Result<CrpqResult> second = eval(shuffled);
    Count();
    if (first.ok() != second.ok()) {
      Fail("meta.conjunct-permutation",
           first.ok() ? "permuted atoms failed: " + second.error().message()
                      : "original failed but permutation succeeded");
      return;
    }
    if (!first.ok()) return;  // same error either way: fine
    if (first.value().truncated || second.value().truncated) return;
    CanonicalResult a = CanonCrpq(g_.skeleton(), first.value());
    CanonicalResult b = CanonCrpq(g_.skeleton(), second.value());
    if (a.rows != b.rows) {
      Fail("meta.conjunct-permutation",
           std::to_string(a.rows.size()) + " rows vs " +
               std::to_string(b.rows.size()) + " after atom shuffle");
    }
  }

  void CheckEdgeAddition(const CanonicalResult& base) {
    if (c_.language != QueryLanguage::kRpq || g_.NumNodes() == 0) return;
    const NodeId src = static_cast<NodeId>(rng_->Index(g_.NumNodes()));
    const NodeId tgt = static_cast<NodeId>(rng_->Index(g_.NumNodes()));
    std::vector<std::string> alphabet = LabelAlphabet(6);
    const std::string& label = alphabet[rng_->Index(alphabet.size())];
    Result<CanonicalResult> got =
        EvalCanonical(WithExtraEdge(g_, src, tgt, label), c_, options_);
    Count();
    if (!got.ok()) {
      Fail("meta.edge-addition", "grown graph failed: " + got.error().message());
      return;
    }
    if (got.value().truncated) return;
    if (!IsSubset(base.rows, got.value().rows)) {
      Fail("meta.edge-addition",
           "adding edge " + std::string(g_.NodeName(src)) + " -[" + label +
               "]-> " + std::string(g_.NodeName(tgt)) + " removed answers (" +
               std::to_string(base.rows.size()) + " -> " +
               std::to_string(got.value().rows.size()) + ")");
    }
  }

  void CheckUnionIdempotence(const CanonicalResult& base) {
    if (c_.language != QueryLanguage::kRpq) return;
    FuzzCase doubled = c_;
    doubled.query_text =
        "(" + c_.query_text + ")|(" + c_.query_text + ")";
    ExpectEqual("meta.union-idempotence",
                EvalCanonical(g_, doubled, options_), base.rows);
  }

  const FuzzCase& c_;
  FuzzRng* rng_;
  const OracleOptions& options_;
  const PropertyGraph& g_;
  OracleReport* report_;
};

}  // namespace

void RunMetamorphic(const FuzzCase& c, FuzzRng* rng,
                    const OracleOptions& options, OracleReport* report) {
  if (c.language == QueryLanguage::kRegular) return;
  Result<PropertyGraph> g = ParseCaseGraph(c);
  if (!g.ok()) return;
  Result<CanonicalResult> base = EvalCanonical(g.value(), c, options);
  // Properties reason about complete answers of well-formed queries; the
  // oracle owns error and truncation behavior.
  if (!base.ok() || base.value().truncated) return;
  MetamorphicRun(c, rng, options, g.value(), report).Run(base.value());
}

}  // namespace fuzz
}  // namespace gqzoo
