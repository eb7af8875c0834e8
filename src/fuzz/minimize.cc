#include "src/fuzz/minimize.h"

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "src/crpq/crpq_parser.h"
#include "src/fuzz/crash_oracle.h"
#include "src/fuzz/graph_gen.h"
#include "src/fuzz/metamorphic.h"
#include "src/fuzz/mutation_gen.h"
#include "src/graph/graph_io.h"

namespace gqzoo {
namespace fuzz {

namespace {

/// Identifier tokens of the query surface text — any node whose name shows
/// up here might be load-bearing (an `@name` constant, a label, a path
/// endpoint) and is never pruned.
std::set<std::string> IdentifierTokens(const FuzzCase& c) {
  std::set<std::string> tokens;
  std::string current;
  for (char ch : c.query_text) {
    if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_') {
      current += ch;
    } else if (!current.empty()) {
      tokens.insert(current);
      current.clear();
    }
  }
  if (!current.empty()) tokens.insert(current);
  tokens.insert(c.paths_from);
  tokens.insert(c.paths_to);
  return tokens;
}

class Minimizer {
 public:
  Minimizer(const FuzzCase& failing, const MinimizeOptions& options)
      : options_(options), best_(failing) {}

  MinimizeResult Run() {
    MinimizeResult result;
    result.check = Verdict(best_);
    result.reproduced = !result.check.empty();
    if (!result.reproduced) {
      result.reduced = best_;
      result.evaluations = evaluations_;
      return result;
    }
    target_ = result.check;
    for (size_t round = 0; round < options_.max_rounds; ++round) {
      bool changed = false;
      changed |= DdminEdges();
      changed |= PruneNodes();
      changed |= DropConjuncts();
      changed |= DropMutations();
      changed |= ClearBudgets();
      if (!changed) break;
    }
    result.reduced = best_;
    result.evaluations = evaluations_;
    return result;
  }

 private:
  std::string Verdict(const FuzzCase& c) {
    ++evaluations_;
    OracleReport report = RunOracle(c, options_.oracle);
    if (report.ok() && !c.mutations.empty()) {
      RunMutationOracle(c, options_.oracle, &report);
    }
    if (report.ok() && !c.mutations.empty()) {
      RunCrashOracle(c, &report);
    }
    if (report.ok() && options_.include_metamorphic) {
      FuzzRng rng = FuzzRng(c.seed).Fork(7);
      RunMetamorphic(c, &rng, options_.oracle, &report);
    }
    return report.ok() ? std::string() : report.divergences.front().check;
  }

  /// Still fails the pinned check?
  bool StillFails(const FuzzCase& c) { return Verdict(c) == target_; }

  /// Replaces the graph of `best_` and keeps the change if the failure
  /// survives.
  bool TryGraph(const PropertyGraph& candidate) {
    FuzzCase c = best_;
    c.graph_text = PropertyGraphToText(candidate);
    if (!StillFails(c)) return false;
    best_ = std::move(c);
    return true;
  }

  bool DdminEdges() {
    Result<PropertyGraph> parsed = ParseCaseGraph(best_);
    if (!parsed.ok()) return false;
    size_t num_edges = parsed.value().NumEdges();
    if (num_edges == 0) return false;

    bool changed = false;
    size_t chunks = 2;
    while (true) {
      Result<PropertyGraph> current = ParseCaseGraph(best_);
      num_edges = current.value().NumEdges();
      if (num_edges == 0 || chunks > num_edges) break;
      const size_t chunk = (num_edges + chunks - 1) / chunks;
      bool reduced_this_granularity = false;
      for (size_t start = 0; start < num_edges; start += chunk) {
        // Keep everything except [start, start+chunk).
        std::vector<bool> keep(num_edges, true);
        for (size_t e = start; e < std::min(start + chunk, num_edges); ++e) {
          keep[e] = false;
        }
        if (TryGraph(WithEdgeSubset(current.value(), keep))) {
          changed = true;
          reduced_this_granularity = true;
          break;  // re-parse: edge indices shifted
        }
      }
      if (reduced_this_granularity) {
        chunks = 2;  // restart coarse on the smaller graph
      } else if (chunk == 1) {
        break;  // finest granularity exhausted
      } else {
        chunks = std::min(chunks * 2, num_edges);
      }
    }
    return changed;
  }

  bool PruneNodes() {
    Result<PropertyGraph> parsed = ParseCaseGraph(best_);
    if (!parsed.ok()) return false;
    const PropertyGraph& g = parsed.value();
    const std::set<std::string> referenced = IdentifierTokens(best_);

    std::vector<char> has_edge(g.NumNodes(), 0);
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      has_edge[g.Src(e)] = has_edge[g.Tgt(e)] = 1;
    }
    std::vector<bool> keep(g.NumNodes(), true);
    bool any = false;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (!has_edge[n] &&
          referenced.count(std::string(g.NodeName(n))) == 0) {
        keep[n] = false;
        any = true;
      }
    }
    if (!any) return false;
    if (TryGraph(WithNodeSubset(g, keep))) return true;
    // All-at-once failed (some divergence needs a spectator node); try one
    // at a time.
    bool changed = false;
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      if (keep[n]) continue;
      Result<PropertyGraph> current = ParseCaseGraph(best_);
      std::optional<NodeId> id = current.value().FindNode(std::string(g.NodeName(n)));
      if (!id.has_value()) continue;
      std::vector<bool> single(current.value().NumNodes(), true);
      single[*id] = false;
      changed |= TryGraph(WithNodeSubset(current.value(), single));
    }
    return changed;
  }

  bool DropConjuncts() {
    if (best_.language != QueryLanguage::kCrpq &&
        best_.language != QueryLanguage::kDlCrpq) {
      return false;
    }
    const RegexDialect dialect = best_.language == QueryLanguage::kDlCrpq
                                     ? RegexDialect::kDl
                                     : RegexDialect::kPlain;
    bool changed = false;
    for (bool retry = true; retry;) {
      retry = false;
      Result<Crpq> q = ParseCrpq(best_.query_text, dialect);
      if (!q.ok() || q.value().atoms.size() <= 1) break;
      for (size_t drop = 0; drop < q.value().atoms.size(); ++drop) {
        Crpq smaller = q.value();
        smaller.atoms.erase(smaller.atoms.begin() + drop);
        // Re-derive the head: only variables the surviving atoms bind.
        std::set<std::string> bound;
        for (const CrpqAtom& atom : smaller.atoms) {
          if (!atom.from.is_constant) bound.insert(atom.from.name);
          if (!atom.to.is_constant) bound.insert(atom.to.name);
          for (const std::string& v : atom.regex->CaptureVariables()) {
            bound.insert(v);
          }
        }
        std::vector<std::string> head;
        for (const std::string& v : smaller.head) {
          if (bound.count(v) != 0) head.push_back(v);
        }
        smaller.head = std::move(head);
        FuzzCase candidate = best_;
        candidate.query_text = smaller.ToString();
        // Self-check: ToString must round-trip (dl printing is the risky
        // part); a non-reparsing candidate fails the verdict anyway, this
        // just saves an oracle run.
        if (!ParseCrpq(candidate.query_text, dialect).ok()) continue;
        if (StillFails(candidate)) {
          best_ = std::move(candidate);
          changed = true;
          retry = true;
          break;
        }
      }
    }
    return changed;
  }

  /// Shrinks the mutation sequence: first try dropping it wholesale (the
  /// failure may be a pure read-path bug), then ops one at a time from the
  /// back (later ops rarely enable earlier ones, so backwards converges
  /// faster on sequences whose prefix carries the bug).
  bool DropMutations() {
    if (best_.mutations.empty()) return false;
    {
      FuzzCase candidate = best_;
      candidate.mutations.clear();
      if (StillFails(candidate)) {
        best_ = std::move(candidate);
        return true;
      }
    }
    bool changed = false;
    for (bool retry = true; retry;) {
      retry = false;
      for (size_t i = best_.mutations.size(); i-- > 0;) {
        FuzzCase candidate = best_;
        candidate.mutations.erase(candidate.mutations.begin() + i);
        if (StillFails(candidate)) {
          best_ = std::move(candidate);
          changed = true;
          retry = true;
          break;
        }
      }
    }
    return changed;
  }

  bool ClearBudgets() {
    if (best_.step_budget == 0 && best_.memory_budget == 0) return false;
    FuzzCase candidate = best_;
    candidate.step_budget = 0;
    candidate.memory_budget = 0;
    if (!StillFails(candidate)) return false;
    best_ = std::move(candidate);
    return true;
  }

  const MinimizeOptions& options_;
  FuzzCase best_;
  std::string target_;
  size_t evaluations_ = 0;
};

std::string SanitizeForTestName(const std::string& s) {
  std::string out;
  bool upper = true;
  for (char ch : s) {
    if (std::isalnum(static_cast<unsigned char>(ch))) {
      out += upper ? static_cast<char>(
                         std::toupper(static_cast<unsigned char>(ch)))
                   : ch;
      upper = false;
    } else {
      upper = true;
    }
  }
  return out.empty() ? "Divergence" : out;
}

}  // namespace

std::string FirstFailure(const FuzzCase& c, const MinimizeOptions& options) {
  OracleReport report = RunOracle(c, options.oracle);
  if (report.ok() && !c.mutations.empty()) {
    RunMutationOracle(c, options.oracle, &report);
  }
  if (report.ok() && !c.mutations.empty()) {
    RunCrashOracle(c, &report);
  }
  if (report.ok() && options.include_metamorphic) {
    FuzzRng rng = FuzzRng(c.seed).Fork(7);
    RunMetamorphic(c, &rng, options.oracle, &report);
  }
  return report.ok() ? std::string() : report.divergences.front().check;
}

MinimizeResult MinimizeCase(const FuzzCase& failing,
                            const MinimizeOptions& options) {
  return Minimizer(failing, options).Run();
}

std::string EmitRegressionTest(const FuzzCase& c, const std::string& check) {
  std::ostringstream out;
  out << "// Save the case below under tests/corpus/ (replayed by\n"
      << "// fuzz_corpus_test) or paste the TEST into a regression suite.\n"
      << "//\n";
  {
    std::istringstream lines(c.ToText());
    std::string line;
    while (std::getline(lines, line)) out << "// " << line << "\n";
  }
  out << "\n"
      << "TEST(FuzzRegression, " << SanitizeForTestName(check) << "Seed"
      << c.seed << ") {\n"
      << "  Result<fuzz::FuzzCase> parsed = fuzz::ParseFuzzCase(R\"case(\n"
      << c.ToText() << ")case\");\n"
      << "  ASSERT_TRUE(parsed.ok()) << parsed.error().message();\n"
      << "  fuzz::OracleOptions options;  // library-only: no engine\n"
      << "  fuzz::OracleReport report =\n"
      << "      fuzz::RunOracle(parsed.value(), options);\n"
      << "  fuzz::FuzzRng rng = fuzz::FuzzRng(parsed.value().seed).Fork(7);\n"
      << "  fuzz::RunMetamorphic(parsed.value(), &rng, options, &report);\n"
      << "  EXPECT_TRUE(report.ok()) << report.ToString();  // was: " << check
      << "\n"
      << "}\n";
  return out.str();
}

}  // namespace fuzz
}  // namespace gqzoo
