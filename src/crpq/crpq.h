#ifndef GQZOO_CRPQ_CRPQ_H_
#define GQZOO_CRPQ_CRPQ_H_

#include <string>
#include <variant>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/path_binding.h"
#include "src/regex/ast.h"
#include "src/util/result.h"

namespace gqzoo {

const char* PathModeName(PathMode mode);

/// An endpoint term of a CRPQ atom: a node variable or a node constant
/// (the generalization of footnote 3; constants are written `@name` in the
/// concrete syntax).
struct CrpqTerm {
  bool is_constant = false;
  std::string name;  // variable name, or node display name if constant

  static CrpqTerm Var(std::string v) { return {false, std::move(v)}; }
  static CrpqTerm Const(std::string n) { return {true, std::move(n)}; }
};

/// One atom `m R(y, y')` of a CRPQ with list variables (3.1.5) or a
/// dl-CRPQ (3.2.2).
struct CrpqAtom {
  PathMode mode = PathMode::kAll;
  RegexPtr regex;
  CrpqTerm from;
  CrpqTerm to;
};

/// A conjunctive regular path query, possibly with list variables and data
/// tests: `q(x1, ..., xk) := m1 R1(y1, y1'), ..., mn Rn(yn, yn')`.
///
/// Plain CRPQs (3.1.2) are the special case where every regex is a plain
/// RPQ and the head contains only endpoint variables.
struct Crpq {
  std::string name;
  std::vector<std::string> head;
  std::vector<CrpqAtom> atoms;

  /// Checks well-formedness conditions (1)–(5) of Section 3.1.5:
  /// list variables are disjoint from endpoint variables, list variables
  /// are not shared between atoms, and every head variable is an endpoint
  /// or list variable of some atom.
  Result<bool> Validate() const;

  /// All endpoint variables, in first-occurrence order.
  std::vector<std::string> EndpointVariables() const;
  /// All list variables, in first-occurrence order.
  std::vector<std::string> ListVariables() const;

  std::string ToString() const;
};

/// A value in a CRPQ output tuple: a node (for endpoint variables) or a
/// list of graph objects (for list variables).
using CrpqValue = std::variant<NodeId, ObjectList>;

std::string CrpqValueToString(const EdgeLabeledGraph& g, const CrpqValue& v);

/// The output of a CRPQ: a set (sorted, deduplicated) of tuples over the
/// head variables. `truncated` is set when enumeration limits cut off an
/// infinite or huge list-binding set (only possible with mode `all` or very
/// large shortest/simple/trail sets; see CrpqEvalOptions).
struct CrpqResult {
  std::vector<std::string> head;
  std::vector<std::vector<CrpqValue>> rows;
  bool truncated = false;

  std::string ToString(const EdgeLabeledGraph& g) const;
};

}  // namespace gqzoo

#endif  // GQZOO_CRPQ_CRPQ_H_
