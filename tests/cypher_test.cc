#include <gtest/gtest.h>

#include <algorithm>

#include "src/automata/operations.h"
#include "src/regex/parser.h"
#include "src/coregql/pattern_eval.h"
#include "src/cypher/cypher_fragment.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/rpq/rpq_eval.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::SnapshotEvalRpq;

CypherPatternPtr CyPat(const std::string& text) {
  Result<CypherPatternPtr> p = ParseCypherPattern(text);
  if (!p.ok()) {
    ADD_FAILURE() << text << ": " << p.error().message();
    return CypherPattern::Node(std::nullopt, {});
  }
  return p.value();
}

TEST(CypherFragmentParserTest, AtomsAndStar) {
  CypherPatternPtr node = CyPat("(x:Account|Person)");
  EXPECT_EQ(node->kind(), CypherPattern::Kind::kNode);
  EXPECT_EQ(node->labels(),
            (std::vector<std::string>{"Account", "Person"}));
  CypherPatternPtr star = CyPat("-[:Transfer*]->");
  EXPECT_EQ(star->kind(), CypherPattern::Kind::kEdgeStar);
  CypherPatternPtr seq = CyPat("(x) -[:a]-> () -[:b*]-> (y)");
  EXPECT_EQ(seq->kind(), CypherPattern::Kind::kConcat);
  // Star over anything else is not part of the fragment.
  EXPECT_FALSE(ParseCypherPattern("((x)-[:a]->(y))*").ok());
  EXPECT_FALSE(ParseCypherPattern("-[e:a*]->").ok());
}

TEST(CypherFragmentTest, ToRegexDropsNodesKeepsEdges) {
  CypherPatternPtr p = CyPat("(x) -[:a]-> () -[:b|c*]-> (y)");
  RegexPtr r = p->ToRegex();
  EdgeLabeledGraph alphabet;
  NodeId u = alphabet.AddNode();
  alphabet.AddEdge(u, u, "a");
  alphabet.AddEdge(u, u, "b");
  alphabet.AddEdge(u, u, "c");
  Nfa nfa = Nfa::FromRegex(*r, alphabet);
  LabelId a = *alphabet.FindLabel("a");
  LabelId b = *alphabet.FindLabel("b");
  LabelId c = *alphabet.FindLabel("c");
  EXPECT_TRUE(nfa.AcceptsWord({a}));
  EXPECT_TRUE(nfa.AcceptsWord({a, b, c, b}));
  EXPECT_FALSE(nfa.AcceptsWord({b}));
}

TEST(CypherFragmentTest, EvaluatesViaCoreGql) {
  PropertyGraph g = Figure3Graph();
  CypherPatternPtr p = CyPat("(x:Account) -[:Transfer*]-> (y:Account)");
  Result<std::vector<CorePairRow>> rows =
      EvalPatternPairs(g, *p->ToCorePattern(), GraphSnapshot(g));
  ASSERT_TRUE(rows.ok());
  // Transfer* is complete on the 6 accounts (Example 12).
  EXPECT_EQ(rows.value().size(), 36u);
}

TEST(UnaryLanguageTest, Operations) {
  UnaryLanguage one = UnaryLanguage::Single(1);
  UnaryLanguage zero = UnaryLanguage::Single(0);
  UnaryLanguage all = UnaryLanguage::AllLengths();
  // {1} + {1} = {2}.
  UnaryLanguage two = UnaryLanguage::SumOf(one, one);
  EXPECT_TRUE(two.Contains(2));
  EXPECT_FALSE(two.Contains(1));
  EXPECT_FALSE(two.IsInfinite());
  // {0} is the neutral element of +.
  EXPECT_EQ(UnaryLanguage::SumOf(two, zero), two);
  // ℕ + {2} = [2, ∞).
  UnaryLanguage shifted = UnaryLanguage::SumOf(all, two);
  EXPECT_FALSE(shifted.Contains(1));
  EXPECT_TRUE(shifted.Contains(2));
  EXPECT_TRUE(shifted.Contains(1000));
  // ∅ annihilates.
  UnaryLanguage empty;
  EXPECT_EQ(UnaryLanguage::SumOf(empty, all), empty);
  // Union normalizes contiguous prefixes into the threshold.
  UnaryLanguage u = UnaryLanguage::UnionOf(zero, UnaryLanguage::SumOf(all, one));
  EXPECT_TRUE(u.Contains(0));
  EXPECT_TRUE(u.Contains(1));
  UnaryLanguage n2 = UnaryLanguage::UnionOf(
      UnaryLanguage::UnionOf(zero, one),
      UnaryLanguage::SumOf(all, two));
  EXPECT_EQ(n2, UnaryLanguage::AllLengths());  // {0} ∪ {1} ∪ [2,∞) = ℕ
}

TEST(UnaryLanguageTest, FragmentPatternsDenoteTheirLanguages) {
  struct Case {
    const char* pattern;
    std::vector<size_t> in;
    std::vector<size_t> out;
  };
  for (const Case& c : std::vector<Case>{
           {"(x) -[:a]-> (y)", {1}, {0, 2, 3}},
           {"(x) -[:a]-> () -[:a]-> (y)", {2}, {0, 1, 3}},
           {"(x) -[:a*]-> (y)", {0, 1, 2, 50}, {}},
           {"((x)-[:a]->(y) | (x)(y))", {0, 1}, {2}},
           {"(x) -[:a]-> () -[:a*]-> (y)", {1, 2, 99}, {0}},
       }) {
    UnaryLanguage lang = UnaryLanguageOf(*CyPat(c.pattern), "a");
    for (size_t n : c.in) EXPECT_TRUE(lang.Contains(n)) << c.pattern << " " << n;
    for (size_t n : c.out) {
      EXPECT_FALSE(lang.Contains(n)) << c.pattern << " " << n;
    }
  }
}

// Proposition 22: no Cypher-fragment pattern expresses (ℓℓ)*. Every
// fragment unary language is finite or upward closed; the even-length
// language is neither. We verify exhaustively for all patterns up to 9
// atoms, and structurally for the general claim.
TEST(Prop22Test, NoFragmentPatternExpressesEvenLengths) {
  std::vector<UnaryLanguage> languages = EnumerateFragmentUnaryLanguages(9);
  ASSERT_FALSE(languages.empty());
  // The target: even lengths (infinite, not upward closed).
  auto is_even_language = [](const UnaryLanguage& l) {
    // Would need: contains all even n, no odd n, infinitely many members.
    if (!l.IsInfinite()) return false;  // finite can't contain all evens
    for (size_t n = 0; n < 20; ++n) {
      if (l.Contains(n) != (n % 2 == 0)) return false;
    }
    return true;
  };
  for (const UnaryLanguage& l : languages) {
    EXPECT_FALSE(is_even_language(l));
    // The structural invariant: infinite ⇒ upward closed from threshold.
    if (l.IsInfinite()) {
      EXPECT_TRUE(l.Contains(l.threshold));
      EXPECT_TRUE(l.Contains(l.threshold + 1));  // both parities present
    }
  }
  // Sanity: the enumeration does reach nontrivial languages, e.g. {2} and
  // [3, ∞) and {1} ∪ [4, ∞).
  UnaryLanguage two = UnaryLanguage::SumOf(UnaryLanguage::Single(1),
                                           UnaryLanguage::Single(1));
  EXPECT_NE(std::find(languages.begin(), languages.end(), two),
            languages.end());
}

TEST(Prop22Test, TheRpqItselfIsFine) {
  // (aa)* is of course expressible as an RPQ and evaluable by automata —
  // the gap is the Cypher fragment, not RPQs.
  EdgeLabeledGraph g = Chain(4);
  Result<RegexPtr> r = ParseRegex("(a a)*", RegexDialect::kPlain);
  ASSERT_TRUE(r.ok());
  auto pairs = SnapshotEvalRpq(g, *r.value());
  // Pairs at even distance: 5 (dist 0) + 3 (dist 2) + 1 (dist 4).
  EXPECT_EQ(pairs.size(), 9u);
}

}  // namespace
}  // namespace gqzoo
