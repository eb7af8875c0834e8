#include <gtest/gtest.h>

#include "src/automata/counting.h"
#include "src/automata/glushkov.h"
#include "src/automata/nfa.h"
#include "src/automata/operations.h"
#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::Rx;

// A graph whose labels define the test alphabet {a, b, c}.
EdgeLabeledGraph AlphabetGraph() {
  EdgeLabeledGraph g;
  NodeId u = g.AddNode();
  g.AddEdge(u, u, "a");
  g.AddEdge(u, u, "b");
  g.AddEdge(u, u, "c");
  return g;
}

// All words over {a, b, c, d} up to length `len` (d stands for "some label
// outside the mentioned alphabet", exercising the co-finite wildcard class).
std::vector<std::vector<LabelId>> AllWords(const EdgeLabeledGraph& g,
                                           size_t len) {
  std::vector<LabelId> alphabet;
  for (LabelId l = 0; l < g.NumLabels(); ++l) alphabet.push_back(l);
  std::vector<std::vector<LabelId>> words = {{}};
  std::vector<std::vector<LabelId>> frontier = {{}};
  for (size_t i = 0; i < len; ++i) {
    std::vector<std::vector<LabelId>> next;
    for (const auto& w : frontier) {
      for (LabelId l : alphabet) {
        std::vector<LabelId> w2 = w;
        w2.push_back(l);
        next.push_back(w2);
        words.push_back(std::move(w2));
      }
    }
    frontier = std::move(next);
  }
  return words;
}

// Reference recursive matcher for plain regexes on label words.
bool Matches(const Regex& r, const EdgeLabeledGraph& g,
             const std::vector<LabelId>& w, size_t lo, size_t hi);

bool AtomMatchesLabel(const Atom& a, const EdgeLabeledGraph& g, LabelId l) {
  switch (a.label_kind) {
    case Atom::LabelKind::kOne:
      return g.FindLabel(a.labels[0]) == std::optional<LabelId>(l);
    case Atom::LabelKind::kNegSet:
      for (const std::string& name : a.labels) {
        if (g.FindLabel(name) == std::optional<LabelId>(l)) return false;
      }
      return true;
    case Atom::LabelKind::kAny:
      return true;
    case Atom::LabelKind::kTest:
      return false;
  }
  return false;
}

bool Matches(const Regex& r, const EdgeLabeledGraph& g,
             const std::vector<LabelId>& w, size_t lo, size_t hi) {
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return lo == hi;
    case Regex::Op::kAtom:
      return hi == lo + 1 && AtomMatchesLabel(r.atom(), g, w[lo]);
    case Regex::Op::kConcat:
      for (size_t mid = lo; mid <= hi; ++mid) {
        if (Matches(*r.left(), g, w, lo, mid) &&
            Matches(*r.right(), g, w, mid, hi)) {
          return true;
        }
      }
      return false;
    case Regex::Op::kUnion:
      return Matches(*r.left(), g, w, lo, hi) ||
             Matches(*r.right(), g, w, lo, hi);
    case Regex::Op::kOptional:
      return lo == hi || Matches(*r.child(), g, w, lo, hi);
    case Regex::Op::kPlus:
    case Regex::Op::kStar: {
      if (lo == hi) return r.op() == Regex::Op::kStar ||
                           Matches(*r.child(), g, w, lo, hi);
      // Nonempty split: first chunk nonempty, recurse.
      for (size_t mid = lo + 1; mid <= hi; ++mid) {
        if (Matches(*r.child(), g, w, lo, mid)) {
          if (mid == hi) return true;
          // Remaining must match star (plus already satisfied once).
          RegexPtr star = Regex::Star(r.child());
          if (Matches(*star, g, w, mid, hi)) return true;
        }
      }
      return false;
    }
  }
  return false;
}

class GlushkovAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GlushkovAgreementTest, AcceptsSameWordsAsReferenceMatcher) {
  EdgeLabeledGraph g = AlphabetGraph();
  g.InternLabel("d");  // a label no regex mentions
  RegexPtr r = Rx(GetParam());
  Nfa nfa = Nfa::FromRegex(*r, g);
  for (const auto& w : AllWords(g, 4)) {
    EXPECT_EQ(nfa.AcceptsWord(w), Matches(*r, g, w, 0, w.size()))
        << GetParam() << " on word of length " << w.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Regexes, GlushkovAgreementTest,
    ::testing::Values("a", "a b", "a|b", "a*", "a+", "a?", "(a b)*",
                      "(a|b)* c", "a (b|c)+ a?", "eps", "(((a*)*)*)*",
                      "!{a} b", "_ _", "!{a,b}*", "a{2}", "a{1,3}",
                      "(a b){2,}", "(a|b)(a|b)(a|b)", "a* b* c*",
                      "((a|eps) b)*"));

TEST(GlushkovTest, PositionsAndEpsilon) {
  GlushkovAutomaton ga = BuildGlushkov(*Rx("(a b)* c"));
  EXPECT_EQ(ga.position_atoms.size(), 3u);
  EXPECT_FALSE(ga.initial_accepting);
  GlushkovAutomaton eps = BuildGlushkov(*Rx("a*"));
  EXPECT_TRUE(eps.initial_accepting);
}

TEST(NfaTest, UnknownLabelMatchesNothing) {
  EdgeLabeledGraph g = AlphabetGraph();
  Nfa nfa = Nfa::FromRegex(*Rx("zzz"), g);
  EXPECT_FALSE(nfa.AcceptsWord({*g.FindLabel("a")}));
  // But a negated set containing only unknown labels matches everything.
  Nfa neg = Nfa::FromRegex(*Rx("!{zzz}"), g);
  EXPECT_TRUE(neg.AcceptsWord({*g.FindLabel("a")}));
}

TEST(LabelPredTest, Conjunction) {
  LabelPred one = LabelPred::One(1);
  LabelPred neg = LabelPred::NegSet({2, 3});
  LabelPred any = LabelPred::Any();
  EXPECT_EQ(LabelPred::And(one, any), one);
  EXPECT_EQ(LabelPred::And(one, neg), one);
  EXPECT_EQ(LabelPred::And(one, LabelPred::NegSet({1})).kind,
            LabelPred::Kind::kNone);
  LabelPred both = LabelPred::And(neg, LabelPred::NegSet({3, 4}));
  EXPECT_EQ(both.kind, LabelPred::Kind::kNegSet);
  EXPECT_EQ(both.labels, (std::vector<LabelId>{2, 3, 4}));
  EXPECT_EQ(LabelPred::And(LabelPred::None(), any).kind,
            LabelPred::Kind::kNone);
}

struct EquivCase {
  const char* lhs;
  const char* rhs;
  bool equivalent;
};

// Prints the case by value: gtest's default dump of the raw bytes would put
// the string addresses and the padding after `equivalent`, both of which
// vary from build to build, into the test name.
void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << "{\"" << c.lhs << "\", \"" << c.rhs << "\", "
      << (c.equivalent ? "true" : "false") << "}";
}

class EquivalenceTest : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EquivalenceTest, MatchesExpectation) {
  EdgeLabeledGraph g = AlphabetGraph();
  Nfa lhs = Nfa::FromRegex(*Rx(GetParam().lhs), g);
  Nfa rhs = Nfa::FromRegex(*Rx(GetParam().rhs), g);
  EXPECT_EQ(AreEquivalent(lhs, rhs), GetParam().equivalent)
      << GetParam().lhs << " vs " << GetParam().rhs;
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, EquivalenceTest,
    ::testing::Values(
        // The Section 6.1 rewriting: (((a*)*)*)* ≡ a*.
        EquivCase{"(((a*)*)*)*", "a*", true},
        EquivCase{"a{2}", "a a", true},
        EquivCase{"(a|b)*", "(a* b*)*", true},
        EquivCase{"a+", "a a*", true},
        EquivCase{"a?", "a|eps", true},
        EquivCase{"(a b)*", "(a b)* a b|eps", true},
        EquivCase{"a", "b", false},
        EquivCase{"(a a)*", "a*", false},
        EquivCase{"a*", "a+", false},
        EquivCase{"_", "a|b|c", false},  // wildcard covers unmentioned labels
        EquivCase{"!{a}", "b|c", false},
        EquivCase{"a b", "b a", false}));

TEST(OperationsTest, UnionIntersectionComplement) {
  EdgeLabeledGraph g = AlphabetGraph();
  Nfa a = Nfa::FromRegex(*Rx("a a*"), g);
  Nfa b = Nfa::FromRegex(*Rx("a"), g);
  // a ∩ ¬b = a a a*.
  Nfa diff = IntersectNfa(a, Complement(b));
  Nfa expect = Nfa::FromRegex(*Rx("a a a*"), g);
  EXPECT_TRUE(AreEquivalent(diff, expect));
  // a ∪ ε-language.
  Nfa u = UnionNfa(a, Nfa::FromRegex(*Rx("eps"), g));
  EXPECT_TRUE(AreEquivalent(u, Nfa::FromRegex(*Rx("a*"), g)));
  // Complement of everything is empty.
  Nfa everything = Nfa::FromRegex(*Rx("_*"), g);
  EXPECT_TRUE(IsEmptyLanguage(Complement(everything)));
  EXPECT_FALSE(IsEmptyLanguage(everything));
}

TEST(OperationsTest, DeterminizeIsDeterministicAndEquivalent) {
  EdgeLabeledGraph g = AlphabetGraph();
  Nfa n = Nfa::FromRegex(*Rx("(a|b)* a (a|b)"), g);
  Nfa d = Determinize(n);
  EXPECT_TRUE(AreEquivalent(n, d));
  EXPECT_FALSE(IsAmbiguous(d));
  // Each DFA state has exactly |mentioned|+1 outgoing transitions.
  for (uint32_t s = 0; s < d.num_states(); ++s) {
    EXPECT_EQ(d.Out(s).size(), n.MentionedLabels().size() + 1);
  }
}

TEST(AmbiguityTest, Examples) {
  EdgeLabeledGraph g = AlphabetGraph();
  EXPECT_FALSE(IsAmbiguous(Nfa::FromRegex(*Rx("a*"), g)));
  EXPECT_FALSE(IsAmbiguous(Nfa::FromRegex(*Rx("a b"), g)));
  EXPECT_TRUE(IsAmbiguous(Nfa::FromRegex(*Rx("a*a*"), g)));
  EXPECT_TRUE(IsAmbiguous(Nfa::FromRegex(*Rx("(a|a)"), g)));
  EXPECT_TRUE(IsAmbiguous(Nfa::FromRegex(*Rx("(a|_)"), g)));
  EXPECT_FALSE(IsAmbiguous(Nfa::FromRegex(*Rx("(a b|a c)"), g)));
  // (((a*)*)*)* is wildly ambiguous as a grammar, but its Glushkov
  // automaton has a single position and is deterministic — the automata
  // view collapses the ambiguity for free (Section 6.1's rewriting story).
  EXPECT_FALSE(IsAmbiguous(Nfa::FromRegex(*Rx("(((a*)*)*)*"), g)));
  // Union of disjoint languages is unambiguous.
  EXPECT_FALSE(IsAmbiguous(Nfa::FromRegex(*Rx("a|b"), g)));
}

TEST(CountingTest, RunsOnWords) {
  EdgeLabeledGraph g = AlphabetGraph();
  LabelId a = *g.FindLabel("a");
  Nfa ambiguous = Nfa::FromRegex(*Rx("a* a*"), g);
  // "aa" parses as (ε|aa), (a|a), (aa|ε): 3 runs.
  EXPECT_EQ(CountAcceptingRuns(ambiguous, {a, a}).ToString(), "3");
  Nfa unambiguous = Nfa::FromRegex(*Rx("a*"), g);
  EXPECT_EQ(CountAcceptingRuns(unambiguous, {a, a}).ToString(), "1");
  EXPECT_EQ(CountAcceptingRuns(unambiguous, {a, *g.FindLabel("b")}).ToString(),
            "0");
}

TEST(CountingTest, PathCountingOnParallelChain) {
  // ParallelChain(n) has exactly 2^n s→t paths of length n; the automaton
  // for a* is unambiguous, so run counting = path counting (Section 6.2).
  for (size_t n : {1u, 3u, 6u, 10u}) {
    EdgeLabeledGraph g = ParallelChain(n);
    Nfa nfa = Nfa::FromRegex(*Rx("a*"), g);
    ASSERT_FALSE(IsAmbiguous(nfa));
    BigUint count = CountRunsOnPaths(GraphSnapshot(g), nfa, *g.FindNode("s"),
                                     *g.FindNode("t"), n + 5);
    EXPECT_EQ(count.ToString(), BigUint(uint64_t{1} << n).ToString())
        << "n=" << n;
  }
}

TEST(CountingTest, AmbiguousAutomatonOvercountsPaths) {
  EdgeLabeledGraph g = ParallelChain(3);
  Nfa ambiguous = Nfa::FromRegex(*Rx("a* a*"), g);
  ASSERT_TRUE(IsAmbiguous(ambiguous));
  BigUint runs = CountRunsOnPaths(GraphSnapshot(g), ambiguous, *g.FindNode("s"),
                                  *g.FindNode("t"), 10);
  // 8 paths, each with 4 runs (split points 0..3).
  EXPECT_EQ(runs.ToString(), "32");
}

}  // namespace
}  // namespace gqzoo
