// Fraud-ring hunting: the money-transfer scenario that motivates the
// paper's Figures 2-3. We look for
//   (1) transfer cycles back to a suspect account under `trail` mode (no
//       transfer is counted twice — the mode keeps results finite),
//   (2) structuring ("smurfing"): cycles in which every hop stays under a
//       reporting threshold, expressed as a dl-RPQ data filter,
//   (3) the blocked-account detour: shortest path that must route through
//       a cheap transfer (Section 6.3's detour effect).
//
// All queries run on a synthetic transfer network plus the Figure 3 graph.

#include <cstdio>
#include <random>

#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/datatest/dl_eval.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/regex/parser.h"

using namespace gqzoo;

namespace {

// A transfer network with a planted 4-account laundering ring whose hops
// all stay under the 10k reporting threshold.
PropertyGraph BuildNetwork() {
  PropertyGraph g;
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> amount(15000, 90000);
  const size_t kAccounts = 40;
  for (size_t i = 0; i < kAccounts; ++i) {
    NodeId n = g.AddNode("acct" + std::to_string(i), "Account");
    g.SetProperty(ObjectRef::Node(n), "owner",
                  Value("Customer" + std::to_string(i)));
  }
  // Background traffic.
  std::uniform_int_distribution<size_t> pick(0, kAccounts - 1);
  for (size_t e = 0; e < 120; ++e) {
    NodeId a = static_cast<NodeId>(pick(rng));
    NodeId b = static_cast<NodeId>(pick(rng));
    if (a == b) continue;
    EdgeId edge = g.AddEdge(a, b, "Transfer");
    g.SetProperty(ObjectRef::Edge(edge), "amount", Value(amount(rng)));
  }
  // The planted ring: 3 -> 17 -> 23 -> 31 -> 3, all hops 9.5k.
  const NodeId ring[] = {3, 17, 23, 31, 3};
  for (int i = 0; i < 4; ++i) {
    EdgeId e = g.AddEdge(ring[i], ring[i + 1], "Transfer",
                         "ring" + std::to_string(i));
    g.SetProperty(ObjectRef::Edge(e), "amount", Value(9500.0));
  }
  return g;
}

}  // namespace

int main() {
  PropertyGraph net = BuildNetwork();
  GraphSnapshot snap(net);
  printf("Transfer network: %zu accounts, %zu transfers.\n\n", net.NumNodes(),
         net.NumEdges());

  // (1) Transfer cycles at acct3 under trail mode (l-CRPQ, Section 3.1.5).
  Crpq cycles = ParseCrpq(
                    "rings(z) := trail (Transfer^z Transfer^z Transfer^z "
                    "Transfer^z) (@acct3, @acct3)")
                    .ValueOrDie();
  CrpqResult r =
      EvalCrpq(net.skeleton(), cycles, {.snapshot = &snap}).ValueOrDie();
  printf("(1) 4-hop transfer cycles at acct3 (trail mode): %zu\n",
         r.rows.size());
  for (const auto& row : r.rows) {
    printf("    z -> %s\n",
           CrpqValueToString(net.skeleton(), row[0]).c_str());
  }

  // (2) Structuring: every hop below the 10k threshold — a dl-RPQ. The
  // symmetric node/edge atoms make the per-edge amount test direct.
  DlNfa structuring = DlNfa::FromRegex(
      *ParseRegex("( ()[Transfer][amount < 10000] ){3,8} ()",
                  RegexDialect::kDl)
           .ValueOrDie(),
      net);
  DlEvaluator evaluator(net, structuring, &snap);
  NodeId acct3 = *net.FindNode("acct3");
  EnumerationLimits limits;
  limits.max_length = 8;
  auto suspicious =
      evaluator.CollectModePaths(acct3, acct3, PathMode::kTrail, limits);
  printf("\n(2) sub-threshold cycles at acct3 (dl-RPQ, trail): %zu\n",
         suspicious.size());
  for (const PathBinding& pb : suspicious) {
    printf("    %s\n", pb.path.ToString(net.skeleton()).c_str());
  }

  // (3) Figure 3's detour: shortest Mike -> Rebecca with one cheap hop.
  PropertyGraph fig3 = Figure3Graph();
  GraphSnapshot fig3_snap(fig3);
  DlNfa detour = DlNfa::FromRegex(
      *ParseRegex("( ()[Transfer] )* ()[Transfer][amount < 4500000] "
                  "( ()[Transfer] )* ()",
                  RegexDialect::kDl)
           .ValueOrDie(),
      fig3);
  DlEvaluator fig3_eval(fig3, detour, &fig3_snap);
  EnumerationLimits fig3_limits;
  fig3_limits.max_length = 12;
  printf("\n(3) shortest Mike->Rebecca path with a sub-4.5M transfer "
         "(paper: length 3 detour):\n");
  for (const PathBinding& pb : fig3_eval.CollectModePaths(
           *fig3.FindNode("a3"), *fig3.FindNode("a5"), PathMode::kShortest,
           fig3_limits)) {
    printf("    %s\n", pb.path.ToString(fig3.skeleton()).c_str());
  }
  return 0;
}
