#include "tests/test_util.h"

#include "src/rpq/rpq_eval.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>

namespace gqzoo {
namespace testing_util {

RegexPtr Rx(const std::string& text) {
  Result<RegexPtr> r = ParseRegex(text, RegexDialect::kPlain);
  if (!r.ok()) {
    fprintf(stderr, "Rx(%s): %s\n", text.c_str(), r.error().message().c_str());
    abort();
  }
  return r.value();
}

RegexPtr DlRx(const std::string& text) {
  Result<RegexPtr> r = ParseRegex(text, RegexDialect::kDl);
  if (!r.ok()) {
    fprintf(stderr, "DlRx(%s): %s\n", text.c_str(),
            r.error().message().c_str());
    abort();
  }
  return r.value();
}

Result<CrpqResult> SnapshotEvalCrpq(const EdgeLabeledGraph& g, const Crpq& q,
                                    CrpqEvalOptions options) {
  GraphSnapshot snapshot(g);
  options.snapshot = &snapshot;
  return EvalCrpq(g, q, options);
}

Result<CrpqResult> SnapshotEvalDlCrpq(const PropertyGraph& g, const Crpq& q,
                                      DlCrpqEvalOptions options) {
  GraphSnapshot snapshot(g);
  options.snapshot = &snapshot;
  return EvalDlCrpq(g, q, options);
}

Result<CoreQueryResult> SnapshotEvalCoreGqlQuery(const PropertyGraph& g,
                                                 const CoreGqlQuery& query,
                                                 CoreQueryEvalOptions options) {
  GraphSnapshot snapshot(g);
  options.path_options.snapshot = &snapshot;
  return EvalCoreGqlQuery(g, query, options);
}

Result<CoreQueryResult> SnapshotRunCoreGql(const PropertyGraph& g,
                                           const std::string& text,
                                           CoreQueryEvalOptions options) {
  GraphSnapshot snapshot(g);
  options.path_options.snapshot = &snapshot;
  return RunCoreGql(g, text, options);
}

Result<CorePathEvalResult> SnapshotEvalPatternPaths(
    const PropertyGraph& g, const CorePattern& pattern,
    CorePathEvalOptions options) {
  GraphSnapshot snapshot(g);
  options.snapshot = &snapshot;
  return EvalPatternPaths(g, pattern, options);
}

Result<GqlEvalResult> SnapshotEvalGqlGroupPattern(
    const PropertyGraph& g, const CorePattern& pattern,
    CorePathEvalOptions options) {
  GraphSnapshot snapshot(g);
  options.snapshot = &snapshot;
  return EvalGqlGroupPattern(g, pattern, options);
}

std::vector<std::pair<NodeId, NodeId>> SnapshotEvalRpq(
    const EdgeLabeledGraph& g, const Regex& regex) {
  return EvalRpq(GraphSnapshot(g), Nfa::FromRegex(regex, g));
}

std::vector<Path> AllPathsFrom(const EdgeLabeledGraph& g, NodeId u,
                               size_t max_len) {
  std::vector<Path> out;
  std::vector<ObjectRef> current = {ObjectRef::Node(u)};
  std::function<void(NodeId, size_t)> dfs = [&](NodeId node, size_t len) {
    out.push_back(Path::MakeUnchecked(current));
    if (len >= max_len) return;
    for (EdgeId e : g.OutEdges(node)) {
      current.push_back(ObjectRef::Edge(e));
      current.push_back(ObjectRef::Node(g.Tgt(e)));
      dfs(g.Tgt(e), len + 1);
      current.pop_back();
      current.pop_back();
    }
  };
  dfs(u, 0);
  return out;
}

std::vector<Path> MatchingPathsBruteForce(const EdgeLabeledGraph& g,
                                          const Nfa& nfa, NodeId u, NodeId v,
                                          size_t max_len) {
  std::vector<Path> out;
  for (const Path& p : AllPathsFrom(g, u, max_len)) {
    if (p.Tgt(g) == v && nfa.AcceptsWord(p.ELab(g))) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PathBinding> MatchingBindingsBruteForce(const EdgeLabeledGraph& g,
                                                    const Nfa& nfa, NodeId u,
                                                    NodeId v, size_t max_len) {
  // Simulate all runs over all paths, collecting captures per run.
  std::vector<PathBinding> out;
  std::vector<ObjectRef> current = {ObjectRef::Node(u)};
  Binding mu;
  std::function<void(NodeId, uint32_t, size_t)> dfs = [&](NodeId node,
                                                          uint32_t state,
                                                          size_t len) {
    if (node == v && nfa.accepting(state)) {
      out.push_back({Path::MakeUnchecked(current), mu});
    }
    if (len >= max_len) return;
    for (EdgeId e : g.OutEdges(node)) {
      LabelId l = g.EdgeLabel(e);
      for (const Nfa::Transition& t : nfa.Out(state)) {
        if (!t.pred.Matches(l)) continue;
        current.push_back(ObjectRef::Edge(e));
        current.push_back(ObjectRef::Node(g.Tgt(e)));
        bool captured = t.capture != Nfa::kNoCapture;
        if (captured) {
          mu.Append(nfa.capture_names()[t.capture], ObjectRef::Edge(e));
        }
        dfs(g.Tgt(e), t.to, len + 1);
        if (captured) {
          const std::string& var = nfa.capture_names()[t.capture];
          mu.lists[var].pop_back();
          if (mu.lists[var].empty()) mu.lists.erase(var);
        }
        current.pop_back();
        current.pop_back();
      }
    }
  };
  dfs(u, nfa.initial(), 0);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::string> PairNames(
    const EdgeLabeledGraph& g,
    const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  std::vector<std::string> out;
  for (const auto& [u, v] : pairs) {
    out.push_back(std::string(g.NodeName(u)) + "->" +
                  std::string(g.NodeName(v)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace testing_util
}  // namespace gqzoo
