#include "src/coregql/pattern_parser.h"

#include <cstdlib>

#include "src/regex/parser.h"

namespace gqzoo {

namespace {

bool IsCompareOp(const Token& t, CompareOp* op) {
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

bool IsKeyword(const Token& t, const char* upper, const char* lower) {
  return t.IsIdent(upper) || t.IsIdent(lower);
}

class Parser {
 public:
  Parser(const std::vector<Token>& tokens, size_t pos)
      : tokens_(tokens), pos_(pos) {}

  size_t pos() const { return pos_; }

  // pattern := seq ('|' seq)*
  Result<CorePatternPtr> ParsePattern() {
    if (nesting_ == kMaxRegexDepth) return TooDeep();
    Nest nest(&nesting_);
    Result<CorePatternPtr> lhs = ParseSeq();
    if (!lhs.ok()) return lhs;
    CorePatternPtr result = std::move(lhs).value();
    while (Cur().IsPunct("|")) {
      ++pos_;
      Result<CorePatternPtr> rhs = ParseSeq();
      if (!rhs.ok()) return rhs;
      result = CorePattern::Union(std::move(result), std::move(rhs).value());
      if (result->depth() > kMaxRegexDepth) return TooDeep();
    }
    return result;
  }

  // cond := and (OR and)*
  Result<CoreCondPtr> ParseCondition() {
    if (nesting_ == kMaxRegexDepth) return TooDeep();
    Nest nest(&nesting_);
    Result<CoreCondPtr> lhs = ParseCondAnd();
    if (!lhs.ok()) return lhs;
    CoreCondPtr result = std::move(lhs).value();
    while (IsKeyword(Cur(), "OR", "or")) {
      ++pos_;
      Result<CoreCondPtr> rhs = ParseCondAnd();
      if (!rhs.ok()) return rhs;
      result = CoreCondition::Or(std::move(result), std::move(rhs).value());
      if (result->depth() > kMaxRegexDepth) return TooDeep();
    }
    return result;
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Peek(size_t k = 1) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }

  Error Err(const std::string& message) {
    return Error("pattern parse error at offset " +
                 std::to_string(Cur().offset) + " ('" + Cur().text +
                 "'): " + message);
  }

  // Every recursive level (a pattern or condition, a group, a NOT) nests
  // one deeper, and the parser refuses past the regex parser's bound. A
  // flat chain (`->` steps, postfix repeats, AND/OR operands) deepens the
  // tree without recursing here, so each operator also checks the depth
  // of the tree it built. Either way a request cannot exhaust the stack of
  // the passes that later recurse over the tree.
  struct Nest {
    explicit Nest(size_t* n) : n_(n) { ++*n_; }
    ~Nest() { --*n_; }
    size_t* n_;
  };

  Error TooDeep() {
    return Err("pattern nests deeper than " + std::to_string(kMaxRegexDepth) +
               " levels");
  }

  bool StartsFactor() const {
    const Token& t = Cur();
    return t.IsPunct("(") || t.IsPunct("-") || t.IsPunct("->");
  }

  Result<CorePatternPtr> ParseSeq() {
    Result<CorePatternPtr> first = ParseFactor();
    if (!first.ok()) return first;
    CorePatternPtr result = std::move(first).value();
    while (StartsFactor()) {
      Result<CorePatternPtr> next = ParseFactor();
      if (!next.ok()) return next;
      result = CorePattern::Concat(std::move(result), std::move(next).value());
      if (result->depth() > kMaxRegexDepth) return TooDeep();
    }
    return result;
  }

  Result<CorePatternPtr> ParseFactor() {
    Result<CorePatternPtr> base = ParseBase();
    if (!base.ok()) return base;
    CorePatternPtr result = std::move(base).value();
    for (;;) {
      if (Cur().IsPunct("*")) {
        ++pos_;
        result = CorePattern::Repeat(std::move(result), 0,
                                     CorePattern::kUnbounded);
      } else if (Cur().IsPunct("+")) {
        ++pos_;
        result = CorePattern::Repeat(std::move(result), 1,
                                     CorePattern::kUnbounded);
      } else if (Cur().IsPunct("?")) {
        ++pos_;
        result = CorePattern::Repeat(std::move(result), 0, 1);
      } else if (Cur().IsPunct("{")) {
        ++pos_;
        if (Cur().kind != Token::Kind::kNumber) {
          return Err("expected number in repetition bounds");
        }
        size_t lo = std::strtoull(Cur().text.c_str(), nullptr, 10);
        size_t hi = lo;
        ++pos_;
        if (Cur().IsPunct(",")) {
          ++pos_;
          if (Cur().kind == Token::Kind::kNumber) {
            hi = std::strtoull(Cur().text.c_str(), nullptr, 10);
            ++pos_;
          } else {
            hi = CorePattern::kUnbounded;
          }
        }
        if (!Cur().IsPunct("}")) return Err("expected '}'");
        ++pos_;
        if (hi != CorePattern::kUnbounded && hi < lo) {
          return Err("bad repetition bounds");
        }
        result = CorePattern::Repeat(std::move(result), lo, hi);
      } else {
        break;
      }
      if (result->depth() > kMaxRegexDepth) return TooDeep();
    }
    return result;
  }

  Result<CorePatternPtr> ParseBase() {
    const Token& t = Cur();
    if (t.IsPunct("->")) {
      ++pos_;
      return CorePattern::Edge(std::nullopt, std::nullopt);
    }
    if (t.IsPunct("-")) return ParseBracketEdge();
    if (!t.IsPunct("(")) return Err("expected '(', '-[', or '->'");
    // '(': a node atom or a group.
    const Token& next = Peek();
    if (next.IsPunct(")")) {  // ()
      pos_ += 2;
      return CorePattern::Node(std::nullopt, std::nullopt);
    }
    if (next.IsPunct(":") ||
        (next.kind == Token::Kind::kIdent &&
         (Peek(2).IsPunct(")") || Peek(2).IsPunct(":")))) {
      return ParseNodeAtom();
    }
    // Group.
    ++pos_;
    Result<CorePatternPtr> inner = ParsePattern();
    if (!inner.ok()) return inner;
    CorePatternPtr result = std::move(inner).value();
    if (IsKeyword(Cur(), "WHERE", "where")) {
      ++pos_;
      Result<CoreCondPtr> cond = ParseCondition();
      if (!cond.ok()) return cond.error();
      result = CorePattern::Where(std::move(result), std::move(cond).value());
      if (result->depth() > kMaxRegexDepth) return TooDeep();
    }
    if (!Cur().IsPunct(")")) return Err("expected ')' after group");
    ++pos_;
    return result;
  }

  Result<CorePatternPtr> ParseNodeAtom() {
    ++pos_;  // '('
    std::optional<std::string> var;
    std::optional<std::string> label;
    if (Cur().kind == Token::Kind::kIdent) {
      var = Cur().text;
      ++pos_;
    }
    if (Cur().IsPunct(":")) {
      ++pos_;
      if (Cur().kind != Token::Kind::kIdent) return Err("expected label");
      label = Cur().text;
      ++pos_;
    }
    if (!Cur().IsPunct(")")) return Err("expected ')' in node atom");
    ++pos_;
    return CorePattern::Node(std::move(var), std::move(label));
  }

  // "-[" [var] [":" label] "]" "->"
  Result<CorePatternPtr> ParseBracketEdge() {
    ++pos_;  // '-'
    if (!Cur().IsPunct("[")) return Err("expected '[' after '-'");
    ++pos_;
    std::optional<std::string> var;
    std::optional<std::string> label;
    if (Cur().kind == Token::Kind::kIdent) {
      var = Cur().text;
      ++pos_;
    }
    if (Cur().IsPunct(":")) {
      ++pos_;
      if (Cur().kind != Token::Kind::kIdent) return Err("expected label");
      label = Cur().text;
      ++pos_;
    }
    if (!Cur().IsPunct("]")) return Err("expected ']' in edge atom");
    ++pos_;
    if (!Cur().IsPunct("->")) return Err("expected '->' after edge atom");
    ++pos_;
    return CorePattern::Edge(std::move(var), std::move(label));
  }

  // --- Conditions ---

  Result<CoreCondPtr> ParseCondAnd() {
    Result<CoreCondPtr> lhs = ParseCondUnary();
    if (!lhs.ok()) return lhs;
    CoreCondPtr result = std::move(lhs).value();
    while (IsKeyword(Cur(), "AND", "and")) {
      ++pos_;
      Result<CoreCondPtr> rhs = ParseCondUnary();
      if (!rhs.ok()) return rhs;
      result = CoreCondition::And(std::move(result), std::move(rhs).value());
      if (result->depth() > kMaxRegexDepth) return TooDeep();
    }
    return result;
  }

  Result<CoreCondPtr> ParseCondUnary() {
    if (IsKeyword(Cur(), "NOT", "not")) {
      if (nesting_ == kMaxRegexDepth) return TooDeep();
      Nest nest(&nesting_);
      ++pos_;
      Result<CoreCondPtr> inner = ParseCondUnary();
      if (!inner.ok()) return inner;
      CoreCondPtr negated = CoreCondition::Not(std::move(inner).value());
      if (negated->depth() > kMaxRegexDepth) return TooDeep();
      return negated;
    }
    if (Cur().IsPunct("(")) {
      ++pos_;
      Result<CoreCondPtr> inner = ParseCondition();
      if (!inner.ok()) return inner;
      if (!Cur().IsPunct(")")) return Err("expected ')' in condition");
      ++pos_;
      return inner;
    }
    return ParseCondAtom();
  }

  Result<CoreCondPtr> ParseCondAtom() {
    if (Cur().kind != Token::Kind::kIdent) {
      return Err("expected condition");
    }
    // label(x) = L
    if (IsKeyword(Cur(), "LABEL", "label") && Peek().IsPunct("(")) {
      pos_ += 2;
      if (Cur().kind != Token::Kind::kIdent) return Err("expected variable");
      std::string var = Cur().text;
      ++pos_;
      if (!Cur().IsPunct(")")) return Err("expected ')'");
      ++pos_;
      if (!Cur().IsPunct("=")) return Err("expected '=' after label(x)");
      ++pos_;
      if (Cur().kind != Token::Kind::kIdent &&
          Cur().kind != Token::Kind::kString) {
        return Err("expected label name");
      }
      std::string label = Cur().text;
      ++pos_;
      return CoreCondition::LabelIs(std::move(var), std::move(label));
    }
    std::string var = Cur().text;
    ++pos_;
    // x:Label
    if (Cur().IsPunct(":")) {
      ++pos_;
      if (Cur().kind != Token::Kind::kIdent) return Err("expected label");
      std::string label = Cur().text;
      ++pos_;
      return CoreCondition::LabelIs(std::move(var), std::move(label));
    }
    if (!Cur().IsPunct(".")) return Err("expected '.' or ':' after variable");
    ++pos_;
    if (Cur().kind != Token::Kind::kIdent) return Err("expected property");
    std::string key = Cur().text;
    ++pos_;
    CompareOp op;
    if (!IsCompareOp(Cur(), &op)) return Err("expected comparison operator");
    ++pos_;
    // Right-hand side: y.k | constant.
    if (Cur().kind == Token::Kind::kIdent && Peek().IsPunct(".")) {
      std::string var2 = Cur().text;
      pos_ += 2;
      if (Cur().kind != Token::Kind::kIdent) return Err("expected property");
      std::string key2 = Cur().text;
      ++pos_;
      return CoreCondition::CompareProps(std::move(var), std::move(key), op,
                                         std::move(var2), std::move(key2));
    }
    Result<Value> constant = ParseConstant();
    if (!constant.ok()) return constant.error();
    return CoreCondition::CompareConst(std::move(var), std::move(key), op,
                                       std::move(constant).value());
  }

  Result<Value> ParseConstant() {
    const Token& t = Cur();
    if (t.kind == Token::Kind::kString) {
      ++pos_;
      return Value(t.text);
    }
    if (t.IsIdent("true") || t.IsIdent("false")) {
      ++pos_;
      return Value(t.text == "true");
    }
    bool negative = t.IsPunct("-");
    if (negative) ++pos_;
    if (Cur().kind != Token::Kind::kNumber) {
      return Err("expected constant value");
    }
    const std::string& text = Cur().text;
    ++pos_;
    if (text.find('.') != std::string::npos ||
        text.find('e') != std::string::npos ||
        text.find('E') != std::string::npos) {
      double v = std::strtod(text.c_str(), nullptr);
      return Value(negative ? -v : v);
    }
    int64_t v = std::strtoll(text.c_str(), nullptr, 10);
    return Value(negative ? -v : v);
  }

  const std::vector<Token>& tokens_;
  size_t pos_;
  size_t nesting_ = 0;
};

}  // namespace

Result<CorePatternPtr> ParseCorePattern(const std::string& text) {
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.error();
  size_t pos = 0;
  Result<CorePatternPtr> p = ParseCorePatternTokens(tokens.value(), &pos);
  if (!p.ok()) return p;
  if (tokens.value()[pos].kind != Token::Kind::kEnd) {
    return Error("pattern parse error: trailing input at offset " +
                 std::to_string(tokens.value()[pos].offset));
  }
  Result<bool> valid = p.value()->Validate();
  if (!valid.ok()) return valid.error();
  return p;
}

Result<CorePatternPtr> ParseCorePatternTokens(const std::vector<Token>& tokens,
                                              size_t* pos) {
  Parser parser(tokens, *pos);
  Result<CorePatternPtr> result = parser.ParsePattern();
  if (result.ok()) *pos = parser.pos();
  return result;
}

Result<CoreCondPtr> ParseCoreCondition(const std::string& text) {
  Result<std::vector<Token>> tokens = Lex(text);
  if (!tokens.ok()) return tokens.error();
  size_t pos = 0;
  Result<CoreCondPtr> c = ParseCoreConditionTokens(tokens.value(), &pos);
  if (!c.ok()) return c;
  if (tokens.value()[pos].kind != Token::Kind::kEnd) {
    return Error("condition parse error: trailing input");
  }
  return c;
}

Result<CoreCondPtr> ParseCoreConditionTokens(const std::vector<Token>& tokens,
                                             size_t* pos) {
  Parser parser(tokens, *pos);
  Result<CoreCondPtr> result = parser.ParseCondition();
  if (result.ok()) *pos = parser.pos();
  return result;
}

}  // namespace gqzoo
