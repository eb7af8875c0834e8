#include <gtest/gtest.h>

#include <utility>

#include "src/automata/glushkov.h"
#include "src/regex/lexer.h"
#include "src/regex/parser.h"
#include "src/regex/printer.h"
#include "tests/test_util.h"

namespace gqzoo {
namespace {

using testing_util::DlRx;
using testing_util::Rx;

TEST(LexerTest, BasicTokens) {
  Result<std::vector<Token>> tokens = Lex("abc (x)->[y] {1,2} := <= _ _f");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> texts;
  for (const Token& t : tokens.value()) texts.push_back(t.text);
  EXPECT_EQ(texts, (std::vector<std::string>{
                       "abc", "(", "x", ")", "->", "[", "y", "]", "{", "1",
                       ",", "2", "}", ":=", "<=", "_", "_f", ""}));
}

TEST(LexerTest, StringsAndComments) {
  Result<std::vector<Token>> tokens = Lex("\"a b\" 'c' # comment\n x");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ(tokens.value()[0].kind, Token::Kind::kString);
  EXPECT_EQ(tokens.value()[0].text, "a b");
  EXPECT_EQ(tokens.value()[1].text, "c");
  EXPECT_EQ(tokens.value()[2].text, "x");
}

TEST(LexerTest, UnterminatedString) { EXPECT_FALSE(Lex("\"abc").ok()); }

TEST(PlainRegexParserTest, Atoms) {
  RegexPtr r = Rx("Transfer");
  EXPECT_EQ(r->op(), Regex::Op::kAtom);
  EXPECT_EQ(r->atom().labels[0], "Transfer");
  EXPECT_EQ(r->atom().target, Atom::Target::kEdge);
}

TEST(PlainRegexParserTest, PrecedenceUnionVsConcat) {
  // a b | c parses as (a b) | c.
  RegexPtr r = Rx("a b | c");
  ASSERT_EQ(r->op(), Regex::Op::kUnion);
  EXPECT_EQ(r->left()->op(), Regex::Op::kConcat);
}

TEST(PlainRegexParserTest, PostfixOperators) {
  EXPECT_EQ(Rx("a*")->op(), Regex::Op::kStar);
  EXPECT_EQ(Rx("a+")->op(), Regex::Op::kPlus);
  EXPECT_EQ(Rx("a?")->op(), Regex::Op::kOptional);
  // Nested: (((a*)*)*)* — the Section 6.1 expression.
  RegexPtr nested = Rx("(((a*)*)*)*");
  EXPECT_EQ(nested->op(), Regex::Op::kStar);
  EXPECT_EQ(nested->child()->op(), Regex::Op::kStar);
}

TEST(PlainRegexParserTest, RepetitionDesugars) {
  // a{2} == a a at the language level; structurally a concat.
  RegexPtr r = Rx("a{2}");
  EXPECT_EQ(r->op(), Regex::Op::kConcat);
  EXPECT_EQ(r->NumPositions(), 2u);
  RegexPtr r2 = Rx("a{1,3}");
  EXPECT_EQ(r2->NumPositions(), 3u);
  RegexPtr r3 = Rx("a{2,}");
  EXPECT_EQ(r3->NumPositions(), 3u);  // a a a*
  EXPECT_EQ(Rx("a{0,0}")->op(), Regex::Op::kEpsilon);
}

TEST(PlainRegexParserTest, EpsilonForms) {
  EXPECT_EQ(Rx("eps")->op(), Regex::Op::kEpsilon);
  EXPECT_EQ(Rx("()")->op(), Regex::Op::kEpsilon);
  EXPECT_TRUE(Rx("a?")->Nullable());
  EXPECT_FALSE(Rx("a")->Nullable());
}

TEST(PlainRegexParserTest, WildcardsAndCaptures) {
  RegexPtr any = Rx("_");
  EXPECT_EQ(any->atom().label_kind, Atom::LabelKind::kAny);
  RegexPtr neg = Rx("!{a, b}");
  EXPECT_EQ(neg->atom().label_kind, Atom::LabelKind::kNegSet);
  EXPECT_EQ(neg->atom().labels, (std::vector<std::string>{"a", "b"}));
  RegexPtr cap = Rx("Transfer^z");
  ASSERT_TRUE(cap->atom().capture.has_value());
  EXPECT_EQ(*cap->atom().capture, "z");
  RegexPtr wild_cap = Rx("_^z");
  EXPECT_TRUE(wild_cap->atom().capture.has_value());
}

TEST(PlainRegexParserTest, CaptureVariableCollection) {
  RegexPtr r = Rx("(a^z1 b^z2)* a^z1");
  EXPECT_EQ(r->CaptureVariables(), (std::vector<std::string>{"z1", "z2"}));
}

TEST(PlainRegexParserTest, Errors) {
  EXPECT_FALSE(ParseRegex("a |", RegexDialect::kPlain).ok());
  EXPECT_FALSE(ParseRegex("(a", RegexDialect::kPlain).ok());
  EXPECT_FALSE(ParseRegex("a b)", RegexDialect::kPlain).ok());
  EXPECT_FALSE(ParseRegex("!{}", RegexDialect::kPlain).ok());
  EXPECT_FALSE(ParseRegex("a{3,1}", RegexDialect::kPlain).ok());
  EXPECT_FALSE(ParseRegex("", RegexDialect::kPlain).ok());
  EXPECT_FALSE(ParseRegex("*", RegexDialect::kPlain).ok());
}

/// `n` copies of `atom` joined by `sep`: a chain n deep.
std::string Chain(const std::string& atom, const std::string& sep, size_t n) {
  std::string out = atom;
  for (size_t i = 1; i < n; ++i) out += sep + atom;
  return out;
}

TEST(RegexDepthTest, AtTheLimitEveryRecursivePassRuns) {
  // Concatenation and union chains, nested stars and a desugared repeat,
  // each exactly kMaxRegexDepth deep: the recursive passes over the tree
  // (Glushkov construction, Nullable, ToString, destruction) must not
  // exhaust the stack, sanitizer builds included.
  std::string stars = "a";
  for (size_t i = 1; i < kMaxRegexDepth; ++i) stars = "(" + stars + ")*";
  const std::string at_limit[] = {
      Chain("a", " ", kMaxRegexDepth),
      Chain("a", " | ", kMaxRegexDepth),
      stars,
      "a{" + std::to_string(kMaxRegexDepth) + "}",
  };
  for (const std::string& text : at_limit) {
    Result<RegexPtr> r = ParseRegex(text, RegexDialect::kPlain);
    ASSERT_TRUE(r.ok()) << text.substr(0, 40) << ": " << r.error().message();
    EXPECT_EQ(r.value()->depth(), kMaxRegexDepth);
    GlushkovAutomaton a = BuildGlushkov(*r.value());
    EXPECT_EQ(a.position_atoms.size(), r.value()->NumPositions());
    EXPECT_EQ(r.value()->Nullable(), a.initial_accepting);
    EXPECT_FALSE(r.value()->ToString().empty());
  }
}

TEST(RegexSizeTest, PositionBoundHoldsAfterDesugaring) {
  // At the bound: 32 copies of a 32-atom chain.
  Result<RegexPtr> at_limit = ParseRegex("(a{32}){32}", RegexDialect::kPlain);
  ASSERT_TRUE(at_limit.ok()) << at_limit.error().message();
  EXPECT_EQ(at_limit.value()->NumPositions(), kMaxRegexPositions);
  EXPECT_EQ(BuildGlushkov(*at_limit.value()).position_atoms.size(),
            kMaxRegexPositions);

  // Nested repeats multiply positions while adding little depth: the
  // 4-level text is 25 bytes and would desugar to 60^4 positions. The
  // parser refuses it without building an automaton, in either dialect.
  const std::pair<const char*, RegexDialect> too_large[] = {
      {"(a{32}){32} a", RegexDialect::kPlain},
      {"((a{20}){20}){20}", RegexDialect::kPlain},
      {"(((a{60}){60}){60}){60}", RegexDialect::kPlain},
      {"((((()[a]){60}){60}){60}){60}", RegexDialect::kDl},
  };
  for (const auto& [text, dialect] : too_large) {
    Result<RegexPtr> r = ParseRegex(text, dialect);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_NE(r.error().message().find("expands to more than"),
              std::string::npos)
        << r.error().message();
  }
}

TEST(RegexDepthTest, OnePastTheLimitIsAParseError) {
  std::string stars = "a";
  for (size_t i = 0; i < kMaxRegexDepth; ++i) stars = "(" + stars + ")*";
  const std::string too_deep[] = {
      Chain("a", " ", kMaxRegexDepth + 1),
      Chain("a", " | ", kMaxRegexDepth + 1),
      stars,
      "a{" + std::to_string(kMaxRegexDepth + 1) + "}",
      "a{" + std::to_string(kMaxRegexDepth) + ",}",
      "(a b){" + std::to_string(kMaxRegexDepth) + "}",
      // Rejected before the repeat is desugared, so no huge tree is built.
      "a{4000000000}",
      "a{18446744073709551615,}",
      // Group nesting recurses in the parser even where it adds no tree
      // level.
      std::string(100000, '(') + "a" + std::string(100000, ')'),
  };
  for (const std::string& text : too_deep) {
    Result<RegexPtr> r = ParseRegex(text, RegexDialect::kPlain);
    ASSERT_FALSE(r.ok()) << text.substr(0, 40);
    EXPECT_NE(r.error().message().find("deeper than"), std::string::npos)
        << r.error().message();
  }
  // A long run of '~' is not nesting: it reads as one inverse atom.
  Result<RegexPtr> inverse =
      ParseRegex(std::string(100000, '~') + "a", RegexDialect::kPlain);
  ASSERT_TRUE(inverse.ok()) << inverse.error().message();
  EXPECT_TRUE(inverse.value()->atom().inverse);
}

TEST(PlainRegexParserTest, ClassPredicates) {
  EXPECT_TRUE(IsPlainRpq(*Rx("a (b|c)* !{d}")));
  EXPECT_FALSE(IsPlainRpq(*Rx("a^z")));
  EXPECT_TRUE(IsListRpq(*Rx("a^z b")));
  EXPECT_FALSE(IsListRpq(*DlRx("(a)")));
  EXPECT_FALSE(IsPlainRpq(*DlRx("[date < 5]")));
}

TEST(DlRegexParserTest, NodeAndEdgeAtoms) {
  RegexPtr node = DlRx("(a)");
  EXPECT_EQ(node->atom().target, Atom::Target::kNode);
  EXPECT_EQ(node->atom().labels[0], "a");
  RegexPtr edge = DlRx("[a]");
  EXPECT_EQ(edge->atom().target, Atom::Target::kEdge);
  RegexPtr anon = DlRx("()");
  EXPECT_EQ(anon->atom().target, Atom::Target::kNode);
  EXPECT_EQ(anon->atom().label_kind, Atom::LabelKind::kAny);
  RegexPtr wild_edge = DlRx("[_]");
  EXPECT_EQ(wild_edge->atom().label_kind, Atom::LabelKind::kAny);
}

TEST(DlRegexParserTest, CapturesAndTests) {
  RegexPtr cap = DlRx("(a^z)");
  EXPECT_EQ(*cap->atom().capture, "z");
  RegexPtr assign = DlRx("(x := date)");
  ASSERT_TRUE(assign->atom().is_test());
  EXPECT_EQ(assign->atom().test->kind, ElementTest::Kind::kAssign);
  EXPECT_EQ(assign->atom().test->data_var, "x");
  EXPECT_EQ(assign->atom().test->property, "date");
  RegexPtr cmp_const = DlRx("[amount < 4500000]");
  ASSERT_TRUE(cmp_const->atom().is_test());
  EXPECT_EQ(cmp_const->atom().test->kind, ElementTest::Kind::kCompareConst);
  EXPECT_EQ(cmp_const->atom().test->op, CompareOp::kLt);
  RegexPtr cmp_var = DlRx("[date > x]");
  EXPECT_EQ(cmp_var->atom().test->kind, ElementTest::Kind::kCompareVar);
  RegexPtr str = DlRx("(owner = 'Mike')");
  EXPECT_EQ(str->atom().test->constant, Value("Mike"));
  RegexPtr neg = DlRx("[k = -3]");
  EXPECT_EQ(neg->atom().test->constant, Value(int64_t{-3}));
}

TEST(DlRegexParserTest, ExampleTwentyOne) {
  // The three expressions of Example 21 parse.
  RegexPtr nodes = DlRx(
      "(a^z)(x := date)( [_](a^z)(date > x)(x := date) )*");
  EXPECT_EQ(nodes->DataVariables(), (std::vector<std::string>{"x"}));
  EXPECT_EQ(nodes->CaptureVariables(), (std::vector<std::string>{"z"}));
  RegexPtr edges = DlRx(
      "[a^z][x := date]( (_)[a^z][date > x][x := date] )*");
  EXPECT_EQ(edges->CaptureVariables(), (std::vector<std::string>{"z"}));
  RegexPtr node_to_node = DlRx(
      "()[a^z][x := date]( (_)[a^z][date > x][x := date] )*()");
  EXPECT_EQ(node_to_node->op(), Regex::Op::kConcat);
}

TEST(DlRegexParserTest, GroupDisambiguation) {
  // ((a) | (b)) is a union of node atoms, not an atom.
  RegexPtr r = DlRx("((a) | (b))");
  EXPECT_EQ(r->op(), Regex::Op::kUnion);
  // ((a)) is a group of one node atom.
  EXPECT_EQ(DlRx("((a))")->op(), Regex::Op::kAtom);
  // ([a][b])* groups edge atoms under a star.
  EXPECT_EQ(DlRx("([a](n)[b])*")->op(), Regex::Op::kStar);
}

TEST(DlRegexParserTest, Errors) {
  EXPECT_FALSE(ParseRegex("a", RegexDialect::kDl).ok());  // bare label
  EXPECT_FALSE(ParseRegex("(a", RegexDialect::kDl).ok());
  EXPECT_FALSE(ParseRegex("[a)", RegexDialect::kDl).ok());
  EXPECT_FALSE(ParseRegex("(x :=)", RegexDialect::kDl).ok());
  EXPECT_FALSE(ParseRegex("(date <)", RegexDialect::kDl).ok());
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PlainPrintParsesBack) {
  RegexPtr r = Rx(GetParam());
  std::string printed = RegexToString(*r, RegexDialect::kPlain);
  Result<RegexPtr> reparsed = ParseRegex(printed, RegexDialect::kPlain);
  ASSERT_TRUE(reparsed.ok()) << printed << ": "
                             << reparsed.error().message();
  EXPECT_EQ(RegexToString(*reparsed.value(), RegexDialect::kPlain), printed);
}

INSTANTIATE_TEST_SUITE_P(
    Plain, RoundTripTest,
    ::testing::Values("a", "a b", "a|b c", "(a|b)*", "a+ b? c*", "eps",
                      "!{a,b} _ a^z", "(a^z b^w)* c", "a{2,4}",
                      "(((a*)*)*)*", "Transfer (Transfer|owner)?"));

class DlRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DlRoundTripTest, DlPrintParsesBack) {
  RegexPtr r = DlRx(GetParam());
  std::string printed = RegexToString(*r, RegexDialect::kDl);
  Result<RegexPtr> reparsed = ParseRegex(printed, RegexDialect::kDl);
  ASSERT_TRUE(reparsed.ok()) << printed << ": "
                             << reparsed.error().message();
  EXPECT_EQ(RegexToString(*reparsed.value(), RegexDialect::kDl), printed);
}

INSTANTIATE_TEST_SUITE_P(
    Dl, DlRoundTripTest,
    ::testing::Values("(a)", "[a]", "()", "(a^z)[b](c)",
                      "((a) | (b))*", "[x := date]",
                      "(a^z)(x := date)([_](a^z)(date > x)(x := date))*",
                      "[amount < 4500000]", "[owner = 'Mike']",
                      "([a](n)[b]){2,3}"));

}  // namespace
}  // namespace gqzoo
