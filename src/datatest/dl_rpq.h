#ifndef GQZOO_DATATEST_DL_RPQ_H_
#define GQZOO_DATATEST_DL_RPQ_H_

#include <optional>
#include <string>
#include <vector>

#include "src/automata/nfa.h"
#include "src/graph/graph.h"
#include "src/regex/ast.h"

namespace gqzoo {

/// A value assignment ν : DataVar → Values (Section 3.2.1), with data
/// variables resolved to dense indices. `std::nullopt` = undefined.
using Valuation = std::vector<std::optional<Value>>;

/// An atom of a dl-RPQ resolved against a property graph: node/edge target,
/// label predicate (for label atoms), and element test (for test atoms).
struct DlAtom {
  Atom::Target target = Atom::Target::kEdge;
  bool is_test = false;

  // Label atoms.
  LabelPred pred;                         // kNone if the label is unknown
  uint32_t capture = UINT32_MAX;          // capture index or kNoCapture

  // Test atoms.
  ElementTest::Kind test_kind = ElementTest::Kind::kAssign;
  PropertyId property = kInvalidId;       // kInvalidId: property not in graph
  uint32_t data_var = UINT32_MAX;         // index into data_var_names
  CompareOp op = CompareOp::kEq;
  Value constant;

  /// Does this atom match object `o` under valuation `nu`? Only an
  /// assignment `x := pname` changes the valuation: on its success the
  /// successor (a copy of `nu` with the effect applied) is written to
  /// `*nu_out`, which must not alias `nu`; other atoms leave it untouched.
  /// Undefined property values make tests fail, and an assignment
  /// from an undefined property does not match (ρ is partial; Remark 19
  /// uses ν only for filtering, so refusing the match is the conservative
  /// reading).
  bool Matches(const PropertyGraph& g, ObjectRef o, const Valuation& nu,
               Valuation* nu_out) const;
};

/// An ε-free NFA over dl atoms (Glushkov of a dl-RPQ, resolved against a
/// property graph). This is the symmetric register-automaton of Section
/// 6.4's "Data Filters" discussion: states × current object × valuation
/// form the configuration space the evaluator explores.
class DlNfa {
 public:
  static constexpr uint32_t kNoCapture = UINT32_MAX;

  struct Transition {
    uint32_t to;
    DlAtom atom;
  };

  /// Compiles a dl-dialect regex. Labels/properties absent from `g`
  /// resolve to match-nothing predicates / always-failing tests.
  static DlNfa FromRegex(const Regex& regex, const PropertyGraph& g);

  /// Number of FromRegex calls since process start (monotone; thread-safe).
  /// Lets tests assert that cached plans do not recompile their automata.
  static uint64_t CompileCount();

  uint32_t num_states() const { return static_cast<uint32_t>(out_.size()); }
  uint32_t initial() const { return 0; }
  bool accepting(uint32_t s) const { return accepting_[s]; }
  const std::vector<Transition>& Out(uint32_t s) const { return out_[s]; }

  const std::vector<std::string>& capture_names() const {
    return capture_names_;
  }
  const std::vector<std::string>& data_var_names() const {
    return data_var_names_;
  }

  /// An all-undefined valuation of the right arity (ν0).
  Valuation InitialValuation() const {
    return Valuation(data_var_names_.size());
  }

 private:
  std::vector<std::vector<Transition>> out_;
  std::vector<bool> accepting_;
  std::vector<std::string> capture_names_;
  std::vector<std::string> data_var_names_;
};

}  // namespace gqzoo

#endif  // GQZOO_DATATEST_DL_RPQ_H_
