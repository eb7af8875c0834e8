#include "src/regex/parser.h"

#include <cstdlib>

namespace gqzoo {

namespace {

bool IsCompareOpToken(const Token& t, CompareOp* op) {
  if (t.kind != Token::Kind::kPunct) return false;
  if (t.text == "=") {
    *op = CompareOp::kEq;
  } else if (t.text == "!=") {
    *op = CompareOp::kNe;
  } else if (t.text == "<") {
    *op = CompareOp::kLt;
  } else if (t.text == ">") {
    *op = CompareOp::kGt;
  } else if (t.text == "<=") {
    *op = CompareOp::kLe;
  } else if (t.text == ">=") {
    *op = CompareOp::kGe;
  } else {
    return false;
  }
  return true;
}

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, size_t pos, RegexDialect dialect)
      : tokens_(tokens), pos_(pos), dialect_(dialect) {}

  // Each group nests one level of this recursion, deepening the tree or
  // not, and each operator below checks the depth and the position count
  // of the tree it built.
  Result<RegexPtr> ParseUnion() {
    if (nesting_ == kMaxRegexDepth) return TooDeep();
    ++nesting_;
    struct Unnest {
      size_t& n;
      ~Unnest() { --n; }
    } unnest{nesting_};
    Result<RegexPtr> lhs = ParseConcat();
    if (!lhs.ok()) return lhs;
    RegexPtr result = std::move(lhs).value();
    while (Cur().IsPunct("|")) {
      ++pos_;
      Result<RegexPtr> rhs = ParseConcat();
      if (!rhs.ok()) return rhs;
      result = Regex::Union(std::move(result), std::move(rhs).value());
      if (!Fits(*result)) return Oversized(*result);
    }
    return result;
  }

  size_t pos() const { return pos_; }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  Error Err(const std::string& message) {
    return Error("regex parse error at offset " + std::to_string(Cur().offset) +
                 " ('" + Cur().text + "'): " + message);
  }

  Error TooDeep() {
    return Err("regex nests deeper than " + std::to_string(kMaxRegexDepth) +
               " levels");
  }

  static bool Fits(const Regex& r) {
    return r.depth() <= kMaxRegexDepth &&
           r.NumPositions() <= kMaxRegexPositions;
  }

  Error Oversized(const Regex& r) {
    if (r.depth() > kMaxRegexDepth) return TooDeep();
    return Err("regex expands to more than " +
               std::to_string(kMaxRegexPositions) + " atoms");
  }

  Result<RegexPtr> ParseConcat() {
    Result<RegexPtr> first = ParseFactor();
    if (!first.ok()) return first;
    RegexPtr result = std::move(first).value();
    while (StartsFactor()) {
      Result<RegexPtr> next = ParseFactor();
      if (!next.ok()) return next;
      result = Regex::Concat(std::move(result), std::move(next).value());
      if (!Fits(*result)) return Oversized(*result);
    }
    return result;
  }

  bool StartsFactor() const {
    const Token& t = Cur();
    if (t.kind == Token::Kind::kIdent) return dialect_ == RegexDialect::kPlain;
    if (t.IsPunct("(")) return true;
    if (t.IsPunct("[")) return dialect_ == RegexDialect::kDl;
    if (t.IsPunct("_") || t.IsPunct("!") || t.IsPunct("~")) {
      return dialect_ == RegexDialect::kPlain;
    }
    return false;
  }

  Result<RegexPtr> ParseFactor() {
    Result<RegexPtr> base = ParseBase();
    if (!base.ok()) return base;
    RegexPtr result = std::move(base).value();
    for (;;) {
      if (Cur().IsPunct("*")) {
        ++pos_;
        result = Regex::Star(std::move(result));
      } else if (Cur().IsPunct("+")) {
        ++pos_;
        result = Regex::Plus(std::move(result));
      } else if (Cur().IsPunct("?")) {
        ++pos_;
        result = Regex::Optional(std::move(result));
      } else if (Cur().IsPunct("{")) {
        Result<RegexPtr> repeated = ParseRepeatSuffix(std::move(result));
        if (!repeated.ok()) return repeated;
        result = std::move(repeated).value();
      } else {
        break;
      }
      if (!Fits(*result)) return Oversized(*result);
    }
    return result;
  }

  // Parses "{n}", "{n,}", or "{n,m}" and applies it to `inner`.
  Result<RegexPtr> ParseRepeatSuffix(RegexPtr inner) {
    ++pos_;  // '{'
    if (Cur().kind != Token::Kind::kNumber) return Err("expected number in {}");
    size_t lo = std::strtoull(Cur().text.c_str(), nullptr, 10);
    ++pos_;
    size_t hi = lo;
    if (Cur().IsPunct(",")) {
      ++pos_;
      if (Cur().kind == Token::Kind::kNumber) {
        hi = std::strtoull(Cur().text.c_str(), nullptr, 10);
        ++pos_;
      } else {
        hi = Regex::kUnbounded;
      }
    }
    if (!Cur().IsPunct("}")) return Err("expected '}'");
    ++pos_;
    if (hi != Regex::kUnbounded && hi < lo) return Err("bad repetition bounds");
    // The desugared chain has `links` concatenations above its first copy
    // of `inner`: refuse one surely too deep before building it (testing
    // `links` alone first, so the sum cannot wrap).
    const size_t links = hi == Regex::kUnbounded ? lo : hi - (hi > 0);
    if (links >= kMaxRegexDepth || links + inner->depth() > kMaxRegexDepth) {
      return TooDeep();
    }
    return Regex::Repeat(std::move(inner), lo, hi);
  }

  Result<RegexPtr> ParseBase() {
    return dialect_ == RegexDialect::kPlain ? ParsePlainBase() : ParseDlBase();
  }

  // ---- Plain dialect (RPQs, l-RPQs) ----

  Result<RegexPtr> ParsePlainBase() {
    const Token& t = Cur();
    if (t.IsPunct("~")) {
      // Two-way navigation (Remark 9): ~a traverses an a-edge backwards.
      // A run of '~' is read in a loop, not by recursion; `~~a` is `~a`.
      while (Cur().IsPunct("~")) ++pos_;
      Result<RegexPtr> base = ParsePlainBase();
      if (!base.ok()) return base;
      const Regex& r = *base.value();
      if (r.op() != Regex::Op::kAtom) {
        return Err("'~' applies to a single atom");
      }
      return Regex::MakeAtom(r.atom().Inverted());
    }
    if (t.kind == Token::Kind::kIdent) {
      if (t.text == "eps") {
        ++pos_;
        return Regex::Epsilon();
      }
      std::string label = t.text;
      ++pos_;
      Atom atom = Atom::Label(label);
      return FinishCapture(std::move(atom));
    }
    if (t.IsPunct("_")) {
      ++pos_;
      return FinishCapture(Atom::Any());
    }
    if (t.IsPunct("!")) {
      ++pos_;
      Result<std::vector<std::string>> labels = ParseLabelSet();
      if (!labels.ok()) return labels.error();
      return FinishCapture(Atom::NegSet(std::move(labels).value()));
    }
    if (t.IsPunct("(")) {
      ++pos_;
      if (Cur().IsPunct(")")) {  // "()" is ε in the plain dialect
        ++pos_;
        return Regex::Epsilon();
      }
      Result<RegexPtr> inner = ParseUnion();
      if (!inner.ok()) return inner;
      if (!Cur().IsPunct(")")) return Err("expected ')'");
      ++pos_;
      return inner;
    }
    return Err("expected label, wildcard, '!', '(', or 'eps'");
  }

  Result<RegexPtr> FinishCapture(Atom atom) {
    if (Cur().IsPunct("^")) {
      ++pos_;
      if (Cur().kind != Token::Kind::kIdent) {
        return Err("expected capture variable after '^'");
      }
      atom.capture = Cur().text;
      ++pos_;
    }
    return Regex::MakeAtom(std::move(atom));
  }

  Result<std::vector<std::string>> ParseLabelSet() {
    if (!Cur().IsPunct("{")) return Error("expected '{' after '!'");
    ++pos_;
    std::vector<std::string> labels;
    bool first = true;
    while (!Cur().IsPunct("}")) {
      if (!first) {
        if (!Cur().IsPunct(",")) return Error("expected ',' in label set");
        ++pos_;
      }
      first = false;
      if (Cur().kind != Token::Kind::kIdent) {
        return Error("expected label in label set");
      }
      labels.push_back(Cur().text);
      ++pos_;
    }
    ++pos_;  // '}'
    if (labels.empty()) return Error("empty label set in '!{}'");
    return labels;
  }

  // ---- dl dialect (dl-RPQs) ----

  Result<RegexPtr> ParseDlBase() {
    const Token& t = Cur();
    if (t.IsIdent("eps")) {
      ++pos_;
      return Regex::Epsilon();
    }
    if (t.IsPunct("[")) {
      ++pos_;
      Result<Atom> atom = ParseAtomBody();
      if (!atom.ok()) return atom.error();
      if (!Cur().IsPunct("]")) return Err("expected ']'");
      ++pos_;
      return Regex::MakeAtom(atom.value().WithTarget(Atom::Target::kEdge));
    }
    if (t.IsPunct("(")) {
      // Either a node atom `(...)` or a grouped subexpression `( R )`.
      const Token& next = Peek(0 + 1);
      if (next.IsPunct("(") || next.IsPunct("[") || next.IsIdent("eps")) {
        ++pos_;  // group
        Result<RegexPtr> inner = ParseUnion();
        if (!inner.ok()) return inner;
        if (!Cur().IsPunct(")")) return Err("expected ')'");
        ++pos_;
        return inner;
      }
      ++pos_;  // node atom
      if (Cur().IsPunct(")")) {  // "()": anonymous node, any label
        ++pos_;
        return Regex::MakeAtom(Atom::Any().WithTarget(Atom::Target::kNode));
      }
      Result<Atom> atom = ParseAtomBody();
      if (!atom.ok()) return atom.error();
      if (!Cur().IsPunct(")")) return Err("expected ')'");
      ++pos_;
      return Regex::MakeAtom(atom.value().WithTarget(Atom::Target::kNode));
    }
    return Err("expected '(', '[', or 'eps'");
  }

  // Body of a dl atom: label [^var] | `_` [^var] | !{...} [^var] | etest.
  Result<Atom> ParseAtomBody() {
    const Token& t = Cur();
    if (t.IsPunct("_")) {
      ++pos_;
      return CaptureSuffix(Atom::Any());
    }
    if (t.IsPunct("!")) {
      ++pos_;
      Result<std::vector<std::string>> labels = ParseLabelSet();
      if (!labels.ok()) return labels.error();
      return CaptureSuffix(Atom::NegSet(std::move(labels).value()));
    }
    if (t.kind != Token::Kind::kIdent) {
      return Err("expected label, test, '_' or '!' in atom");
    }
    std::string ident = t.text;
    const Token& next = Peek();
    CompareOp op;
    if (next.IsPunct(":=")) {
      // x := pname
      pos_ += 2;
      if (Cur().kind != Token::Kind::kIdent) {
        return Err("expected property name after ':='");
      }
      ElementTest test;
      test.kind = ElementTest::Kind::kAssign;
      test.data_var = ident;
      test.property = Cur().text;
      ++pos_;
      return Atom::Test(std::move(test));
    }
    if (IsCompareOpToken(next, &op)) {
      // pname op c   |   pname op x
      pos_ += 2;
      ElementTest test;
      test.property = ident;
      test.op = op;
      Result<bool> rhs = ParseTestRhs(&test);
      if (!rhs.ok()) return rhs.error();
      return Atom::Test(std::move(test));
    }
    // Plain label atom.
    ++pos_;
    return CaptureSuffix(Atom::Label(ident));
  }

  Result<Atom> CaptureSuffix(Atom atom) {
    if (Cur().IsPunct("^")) {
      ++pos_;
      if (Cur().kind != Token::Kind::kIdent) {
        return Err("expected capture variable after '^'");
      }
      atom.capture = Cur().text;
      ++pos_;
    }
    return atom;
  }

  // Parses the right-hand side of `pname op ...` into `test`.
  Result<bool> ParseTestRhs(ElementTest* test) {
    const Token& t = Cur();
    if (t.kind == Token::Kind::kNumber || t.IsPunct("-")) {
      bool negative = t.IsPunct("-");
      if (negative) ++pos_;
      if (Cur().kind != Token::Kind::kNumber) return Err("expected number");
      const std::string& text = Cur().text;
      test->kind = ElementTest::Kind::kCompareConst;
      if (text.find('.') != std::string::npos ||
          text.find('e') != std::string::npos ||
          text.find('E') != std::string::npos) {
        double v = std::strtod(text.c_str(), nullptr);
        test->constant = Value(negative ? -v : v);
      } else {
        int64_t v = std::strtoll(text.c_str(), nullptr, 10);
        test->constant = Value(negative ? -v : v);
      }
      ++pos_;
      return true;
    }
    if (t.kind == Token::Kind::kString) {
      test->kind = ElementTest::Kind::kCompareConst;
      test->constant = Value(t.text);
      ++pos_;
      return true;
    }
    if (t.IsIdent("true") || t.IsIdent("false")) {
      test->kind = ElementTest::Kind::kCompareConst;
      test->constant = Value(t.text == "true");
      ++pos_;
      return true;
    }
    if (t.kind == Token::Kind::kIdent) {
      test->kind = ElementTest::Kind::kCompareVar;
      test->data_var = t.text;
      ++pos_;
      return true;
    }
    return Err("expected constant or data variable");
  }

  const std::vector<Token>& tokens_;
  size_t pos_;
  RegexDialect dialect_;
  size_t nesting_ = 0;  // ParseUnion calls on the stack
};

bool CheckAtoms(const Regex& r, bool allow_captures, bool allow_tests,
                bool allow_nodes) {
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return true;
    case Regex::Op::kAtom: {
      const Atom& a = r.atom();
      if (!allow_captures && a.capture.has_value()) return false;
      if (!allow_tests && a.is_test()) return false;
      if (!allow_nodes && a.target == Atom::Target::kNode) return false;
      return true;
    }
    case Regex::Op::kConcat:
    case Regex::Op::kUnion:
      return CheckAtoms(*r.left(), allow_captures, allow_tests, allow_nodes) &&
             CheckAtoms(*r.right(), allow_captures, allow_tests, allow_nodes);
    case Regex::Op::kStar:
    case Regex::Op::kPlus:
    case Regex::Op::kOptional:
      return CheckAtoms(*r.child(), allow_captures, allow_tests, allow_nodes);
  }
  return false;
}

}  // namespace

Result<RegexPtr> ParseRegex(const std::string& text, RegexDialect dialect) {
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.error();
  size_t pos = 0;
  Result<RegexPtr> r = ParseRegexTokens(tokens.value(), &pos, dialect);
  if (!r.ok()) return r;
  if (tokens.value()[pos].kind != Token::Kind::kEnd) {
    return Error("regex parse error: trailing input at offset " +
                 std::to_string(tokens.value()[pos].offset) + " ('" +
                 tokens.value()[pos].text + "')");
  }
  return r;
}

Result<RegexPtr> ParseRegexTokens(const std::vector<Token>& tokens,
                                  size_t* pos, RegexDialect dialect) {
  Parser parser(tokens, *pos, dialect);
  Result<RegexPtr> result = parser.ParseUnion();
  if (result.ok()) *pos = parser.pos();
  return result;
}

bool IsPlainRpq(const Regex& r) {
  return CheckAtoms(r, /*allow_captures=*/false, /*allow_tests=*/false,
                    /*allow_nodes=*/false);
}

bool IsListRpq(const Regex& r) {
  return CheckAtoms(r, /*allow_captures=*/true, /*allow_tests=*/false,
                    /*allow_nodes=*/false);
}

bool HasInverseAtoms(const Regex& r) {
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return false;
    case Regex::Op::kAtom:
      return r.atom().inverse;
    case Regex::Op::kConcat:
    case Regex::Op::kUnion:
      return HasInverseAtoms(*r.left()) || HasInverseAtoms(*r.right());
    case Regex::Op::kStar:
    case Regex::Op::kPlus:
    case Regex::Op::kOptional:
      return HasInverseAtoms(*r.child());
  }
  return false;
}

}  // namespace gqzoo
