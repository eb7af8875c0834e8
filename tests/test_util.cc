#include "tests/test_util.h"

#include <gtest/gtest.h>

#include "src/fuzz/plan_legs.h"
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

std::vector<std::vector<EdgeId>> EdgeTableLists(const EdgeLabeledGraph& g,
                                                bool inverse) {
  std::vector<std::vector<EdgeId>> lists(g.NumNodes());
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    lists[inverse ? g.Tgt(e) : g.Src(e)].push_back(e);
  }
  return lists;
}

std::vector<Path> AllPathsFrom(const EdgeLabeledGraph& g, NodeId u,
                               size_t max_len) {
  const std::vector<std::vector<EdgeId>> out_edges = EdgeTableLists(g);
  std::vector<Path> out;
  std::vector<ObjectRef> current = {ObjectRef::Node(u)};
  std::function<void(NodeId, size_t)> dfs = [&](NodeId node, size_t len) {
    out.push_back(Path::MakeUnchecked(current));
    if (len >= max_len) return;
    for (EdgeId e : out_edges[node]) {
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

std::vector<bool> TrimmedProductStates(const EdgeLabeledGraph& g,
                                       const Nfa& nfa) {
  const uint32_t states = nfa.num_states();
  std::vector<bool> fwd(g.NumNodes() * states, false);
  std::vector<bool> bwd(g.NumNodes() * states, false);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    fwd[v * states + nfa.initial()] = true;
    for (uint32_t q = 0; q < states; ++q) {
      if (nfa.accepting(q)) bwd[v * states + q] = true;
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (EdgeId e = 0; e < g.NumEdges(); ++e) {
      for (uint32_t q = 0; q < states; ++q) {
        for (const Nfa::Transition& t : nfa.Out(q)) {
          if (!t.pred.Matches(g.EdgeLabel(e))) continue;
          const size_t from = g.Src(e) * states + q;
          const size_t to = g.Tgt(e) * states + t.to;
          if (fwd[from] && !fwd[to]) fwd[to] = changed = true;
          if (bwd[to] && !bwd[from]) bwd[from] = changed = true;
        }
      }
    }
  }
  std::vector<bool> keep(fwd.size());
  for (size_t id = 0; id < keep.size(); ++id) keep[id] = fwd[id] && bwd[id];
  return keep;
}

std::vector<PathBinding> MatchingBindingsBruteForce(const EdgeLabeledGraph& g,
                                                    const Nfa& nfa, NodeId u,
                                                    NodeId v, size_t max_len) {
  // Simulate all runs over all paths, collecting captures per run.
  const std::vector<std::vector<EdgeId>> out_edges = EdgeTableLists(g);
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
    for (EdgeId e : out_edges[node]) {
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

size_t ExpectPlanLegsAgree(const PropertyGraph& g, QueryLanguage language,
                           const std::string& text) {
  GraphSnapshot snapshot(g);
  SnapshotStats stats(snapshot);
  Result<PlanPtr> plan = CompilePlan(language, text, g, 0, {}, &stats);
  EXPECT_TRUE(plan.ok()) << text << ": " << plan.error().message();
  if (!plan.ok()) return 0;
  ConjunctiveRun run;
  run.snapshot = &snapshot;
  const Result<QueryResponse> planned = fuzz::RunPlan(*plan.value(), g, run);
  for (fuzz::PlanLeg leg : fuzz::kPlanLegs) {
    const Result<QueryResponse> r =
        fuzz::RunPlan(fuzz::PlanForLeg(*plan.value(), leg), g, run);
    const char* name = fuzz::PlanLegName(leg);
    EXPECT_EQ(r.ok(), planned.ok()) << name << ": " << text;
    if (!r.ok() && !planned.ok()) {
      EXPECT_EQ(r.error().message(), planned.error().message()) << name;
    } else if (r.ok() && planned.ok()) {
      EXPECT_EQ(r.value().text, planned.value().text) << name << ": " << text;
      EXPECT_EQ(r.value().num_rows, planned.value().num_rows) << name;
      EXPECT_EQ(r.value().truncated, planned.value().truncated) << name;
    }
  }
  return planned.ok() ? planned.value().num_rows : 0;
}

}  // namespace testing_util
}  // namespace gqzoo
