#ifndef GQZOO_REGEX_PARSER_H_
#define GQZOO_REGEX_PARSER_H_

#include <string>
#include <vector>

#include "src/regex/ast.h"
#include "src/regex/lexer.h"
#include "src/util/result.h"

namespace gqzoo {

/// Which surface syntax to parse.
enum class RegexDialect {
  /// RPQs and l-RPQs (Sections 3.1.1, 3.1.4): bare labels are edge atoms.
  ///
  ///     Transfer (Transfer^z)* (a|b)+ !{a,b} _ eps () a{2,5}
  kPlain,
  /// dl-RPQs (Section 3.2.1): every atom is bracketed; `( )` matches nodes,
  /// `[ ]` matches edges; atoms are labels, captures, or element tests.
  ///
  ///     (a^z)(x := date)([_](a^z)(date > x)(x := date))*
  kDl,
};

/// The deepest regex the parsers accept, counted both as syntax-tree
/// height (`Regex::depth`, after `{n,m}` is desugared) and as nesting of
/// parenthesized groups. The Glushkov construction, `Nullable`,
/// `ToString` and destruction all recurse once per tree level, and a
/// request carries its regex, so this bounds their stack use. A regex at
/// exactly this depth passes all four under ASan (DESIGN.md).
inline constexpr size_t kMaxRegexDepth = 256;

/// The most Glushkov positions (atom occurrences after `{n,m}` is
/// desugared) a regex may have. Nested repetition multiplies positions
/// while it only adds depth: the 25-byte `(((a{60}){60}){60}){60}` passes
/// the depth bound and desugars to 1.3·10^7 positions. The automaton has
/// one state per position and up to one transition per pair of them, so
/// this bounds compile time and memory for every language that embeds a
/// regex: the worst case at the bound, a starred union of 1024 atoms, has
/// about 10^6 transitions (56 MB peak RSS to compile; 4096 atoms took
/// 840 MB).
inline constexpr size_t kMaxRegexPositions = 1024;

/// Parses a complete regex; fails if trailing tokens remain, or the regex
/// is deeper than `kMaxRegexDepth` or larger than `kMaxRegexPositions`.
Result<RegexPtr> ParseRegex(const std::string& text, RegexDialect dialect);

/// Parses a regex from `tokens` starting at `*pos`, advancing `*pos` past
/// the parsed expression (greedy: stops at the first token that cannot
/// extend the expression). Embedders (the CRPQ parser) use this form.
Result<RegexPtr> ParseRegexTokens(const std::vector<Token>& tokens,
                                  size_t* pos, RegexDialect dialect);

/// True iff `r` uses no captures, no tests, and only edge atoms — i.e. it
/// is a plain RPQ in the sense of Section 3.1.1.
bool IsPlainRpq(const Regex& r);

/// True iff `r` uses no tests and only edge atoms — an l-RPQ (3.1.4).
bool IsListRpq(const Regex& r);

/// True iff `r` contains an inverse atom `~a` (a 2RPQ, Remark 9).
bool HasInverseAtoms(const Regex& r);

}  // namespace gqzoo

#endif  // GQZOO_REGEX_PARSER_H_
