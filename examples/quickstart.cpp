// Quickstart: the paper's running examples on the Figure 2 / Figure 3 bank
// graphs, end to end — build a graph, parse queries, evaluate, print.
//
// Covers: RPQs (Example 12), CRPQs (Example 13), l-RPQs with list
// variables (Example 16), shortest mode grouped by endpoints (Example 17),
// and dl-RPQs with data tests (Example 21).

#include <cstdio>

#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/pmr/build.h"
#include "src/pmr/enumerate.h"
#include "src/regex/parser.h"
#include "src/rpq/rpq_eval.h"

using namespace gqzoo;

int main() {
  // ---- The data: Figures 2 and 3 ---------------------------------------
  // Every evaluator reads a GraphSnapshot: the graph's label-partitioned
  // CSR adjacency, built once per graph.
  EdgeLabeledGraph fig2 = Figure2Graph();
  GraphSnapshot fig2_snap(fig2);
  PropertyGraph fig3 = Figure3Graph();
  GraphSnapshot fig3_snap(fig3);
  printf("Figure 2: %zu nodes, %zu edges. Figure 3: %zu nodes, %zu edges.\n\n",
         fig2.NumNodes(), fig2.NumEdges(), fig3.NumNodes(), fig3.NumEdges());

  // ---- Example 12: the RPQ Transfer* ------------------------------------
  RegexPtr transfer_star =
      ParseRegex("Transfer*", RegexDialect::kPlain).ValueOrDie();
  auto pairs = EvalRpq(fig2_snap, Nfa::FromRegex(*transfer_star, fig2));
  printf("Example 12 — [[Transfer*]] has %zu pairs (accounts are strongly "
         "connected).\n\n",
         pairs.size());

  // ---- Example 13: CRPQs ------------------------------------------------
  Crpq q1 = ParseCrpq("q1(x1, x2, x3) := Transfer(x1, x2), "
                      "Transfer(x1, x3), Transfer(x2, x3)")
                .ValueOrDie();
  printf("Example 13 — %s\n", q1.ToString().c_str());
  printf("%s\n", EvalCrpq(fig2, q1, {.snapshot = &fig2_snap})
                     .ValueOrDie()
                     .ToString(fig2)
                     .c_str());

  Crpq q2 = ParseCrpq("q2(x, x1, x2) := owner(y, x1), isBlocked(y, x2), "
                      "(Transfer Transfer?)(x, y)")
                .ValueOrDie();
  printf("Example 13 — %s\n", q2.ToString().c_str());
  printf("%s\n", EvalCrpq(fig2, q2, {.snapshot = &fig2_snap})
                     .ValueOrDie()
                     .ToString(fig2)
                     .c_str());

  // ---- Example 16: an l-RPQ and its path bindings -----------------------
  Nfa lrpq = Nfa::FromRegex(
      *ParseRegex("(Transfer^z)* isBlocked", RegexDialect::kPlain)
           .ValueOrDie(),
      fig2);
  Pmr pmr = BuildPmr(fig2_snap, lrpq, {*fig2.FindNode("a3")}, {});
  EnumerationLimits limits;
  limits.max_length = 3;
  printf("Example 16 — (Transfer^z)* isBlocked from a3, paths of length <= "
         "3:\n");
  EnumeratePathBindings(pmr, limits, [&](const PathBinding& pb) {
    printf("  %s with z -> %s\n", pb.path.ToString(fig2).c_str(),
           ListToString(fig2, pb.mu.Get("z")).c_str());
    return true;
  });
  printf("\n");

  // ---- Example 17: shortest grouped by endpoint pair --------------------
  Crpq q17 = ParseCrpq("q(x1, x2, z) := owner(y1, x1), owner(y2, x2), "
                       "shortest (Transfer^z)+ (y1, y2)")
                 .ValueOrDie();
  printf("Example 17 — %s\n", q17.ToString().c_str());
  printf("%s\n", EvalCrpq(fig2, q17, {.snapshot = &fig2_snap})
                     .ValueOrDie()
                     .ToString(fig2)
                     .c_str());

  // ---- Example 21: dl-RPQ with data tests (increasing dates) ------------
  DlNfa dl = DlNfa::FromRegex(
      *ParseRegex(
           "()[Transfer^z][x := date]"
           "( (_)[Transfer^z][date > x][x := date] )*()",
           RegexDialect::kDl)
           .ValueOrDie(),
      fig3);
  DlEvaluator evaluator(fig3, dl, &fig3_snap);
  printf("Example 21 — transfers with increasing dates from a1 to a5:\n");
  EnumerationLimits dl_limits;
  dl_limits.max_length = 6;
  for (const PathBinding& pb : evaluator.CollectModePaths(
           *fig3.FindNode("a1"), *fig3.FindNode("a5"), PathMode::kAll,
           dl_limits)) {
    printf("  %s\n", pb.path.ToString(fig3.skeleton()).c_str());
  }
  return 0;
}
