#include "src/datatest/dl_rpq.h"

#include <atomic>

#include "src/automata/glushkov.h"

namespace gqzoo {

bool DlAtom::Matches(const PropertyGraph& g, ObjectRef o, const Valuation& nu,
                     Valuation* nu_out) const {
  if ((target == Atom::Target::kNode) != o.is_node()) return false;
  if (!is_test) return pred.Matches(g.ObjectLabel(o));
  if (property == kInvalidId) return false;
  std::optional<Value> value = g.GetProperty(o, property);
  if (!value.has_value()) return false;
  switch (test_kind) {
    case ElementTest::Kind::kAssign:
      *nu_out = nu;
      (*nu_out)[data_var] = std::move(*value);
      return true;
    case ElementTest::Kind::kCompareConst:
      return Value::Compare(*value, op, constant);
    case ElementTest::Kind::kCompareVar: {
      const std::optional<Value>& bound = nu[data_var];
      return bound.has_value() && Value::Compare(*value, op, *bound);
    }
  }
  return false;
}

namespace {
std::atomic<uint64_t> dl_nfa_compile_count{0};
}  // namespace

uint64_t DlNfa::CompileCount() {
  return dl_nfa_compile_count.load(std::memory_order_relaxed);
}

DlNfa DlNfa::FromRegex(const Regex& regex, const PropertyGraph& g) {
  dl_nfa_compile_count.fetch_add(1, std::memory_order_relaxed);
  GlushkovAutomaton glushkov = BuildGlushkov(regex);
  DlNfa nfa;
  nfa.out_.assign(glushkov.position_atoms.size() + 1, {});
  nfa.accepting_.assign(glushkov.position_atoms.size() + 1, false);
  nfa.accepting_[0] = glushkov.initial_accepting;
  for (uint32_t p : glushkov.accepting_positions) nfa.accepting_[p] = true;

  auto intern = [](std::vector<std::string>* names, const std::string& name) {
    for (uint32_t i = 0; i < names->size(); ++i) {
      if ((*names)[i] == name) return i;
    }
    names->push_back(name);
    return static_cast<uint32_t>(names->size() - 1);
  };

  // Resolve each position's atom once.
  std::vector<DlAtom> resolved;
  for (const Atom& atom : glushkov.position_atoms) {
    DlAtom r;
    r.target = atom.target;
    if (atom.is_test()) {
      r.is_test = true;
      const ElementTest& test = *atom.test;
      r.test_kind = test.kind;
      std::optional<PropertyId> prop = g.FindProperty(test.property);
      r.property = prop.value_or(kInvalidId);
      r.op = test.op;
      r.constant = test.constant;
      if (!test.data_var.empty()) {
        r.data_var = intern(&nfa.data_var_names_, test.data_var);
      }
    } else {
      switch (atom.label_kind) {
        case Atom::LabelKind::kOne: {
          std::optional<LabelId> l = g.FindLabel(atom.labels[0]);
          r.pred = l.has_value() ? LabelPred::One(*l) : LabelPred::None();
          break;
        }
        case Atom::LabelKind::kNegSet: {
          std::vector<LabelId> ids;
          for (const std::string& name : atom.labels) {
            std::optional<LabelId> l = g.FindLabel(name);
            if (l.has_value()) ids.push_back(*l);
          }
          r.pred = LabelPred::NegSet(std::move(ids));
          break;
        }
        case Atom::LabelKind::kAny:
          r.pred = LabelPred::Any();
          break;
        case Atom::LabelKind::kTest:
          r.pred = LabelPred::None();
          break;
      }
      if (atom.capture.has_value()) {
        r.capture = intern(&nfa.capture_names_, *atom.capture);
      }
    }
    resolved.push_back(std::move(r));
  }

  for (uint32_t from = 0; from < glushkov.transitions.size(); ++from) {
    for (uint32_t to : glushkov.transitions[from]) {
      nfa.out_[from].push_back({to, resolved[to - 1]});
    }
  }
  return nfa;
}

}  // namespace gqzoo
