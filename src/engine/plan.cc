#include "src/engine/plan.h"

#include <utility>

#include "src/coregql/pattern_parser.h"
#include "src/crpq/crpq_parser.h"
#include "src/crpq/eval.h"
#include "src/datatest/dl_eval.h"
#include "src/planner/cost_model.h"
#include "src/planner/planner.h"
#include "src/regex/parser.h"

namespace gqzoo {

namespace {

Error AsParseError(const Error& e) {
  return Error(ErrorCode::kParse, e.message());
}

// Display form of an atom for EXPLAIN: "mode regex(from, to)".
std::string AtomLabel(const CrpqAtom& atom) {
  std::string out;
  if (atom.mode != PathMode::kAll) {
    out += PathModeName(atom.mode);
    out += " ";
  }
  out += atom.regex->ToString();
  out += "(";
  out += atom.from.is_constant ? "@" + atom.from.name : atom.from.name;
  out += ", ";
  out += atom.to.is_constant ? "@" + atom.to.name : atom.to.name;
  out += ")";
  return out;
}

// Join variables of an atom: its non-constant endpoints. List variables
// are never shared between atoms (condition (4) of Section 3.1.5), so
// they play no role in connectivity.
std::vector<std::string> AtomVars(const CrpqAtom& atom) {
  std::vector<std::string> vars;
  if (!atom.from.is_constant) vars.push_back(atom.from.name);
  if (!atom.to.is_constant && atom.to.name != atom.from.name) {
    vars.push_back(atom.to.name);
  }
  return vars;
}

// Orders `conjuncts` with the greedy planner when stats were supplied,
// falling back to textual order (recorded as such) otherwise or for
// single-conjunct queries.
std::vector<size_t> OrderConjuncts(const std::vector<Conjunct>& conjuncts,
                                   bool have_stats, ExplainInfo* explain) {
  if (have_stats && conjuncts.size() > 1) {
    return GreedyJoinOrder(conjuncts, explain);
  }
  return TextualJoinOrder(conjuncts, explain);
}

// True when a CRPQ / dl-CRPQ atom's relation is exactly one label's edge
// relation over two distinct variables — the shape the worst-case-optimal
// join can serve straight from the per-label CSR slices. Mode must be
// kAll: restricted modes cannot change the pair set of a single-edge
// regex in useful cases, but kSimple's treatment of self-loops is
// evaluator-defined, so anything but kAll stays on the binary path.
bool WcojEligibleAtom(const CrpqAtom& atom) {
  if (atom.mode != PathMode::kAll) return false;
  if (atom.from.is_constant || atom.to.is_constant) return false;
  if (atom.from.name == atom.to.name) return false;
  if (atom.regex == nullptr || atom.regex->op() != Regex::Op::kAtom) {
    return false;
  }
  const Atom& a = atom.regex->atom();
  return a.target == Atom::Target::kEdge &&
         a.label_kind == Atom::LabelKind::kOne && !a.inverse &&
         !a.capture.has_value() && !a.test.has_value();
}

// Shared spec construction once a cyclic core is detected: maps the
// elimination order to variable indices and bakes the resolved label ids.
// `atoms` holds (conjunct, from, to, label) rows for every candidate.
struct WcojAtomRow {
  size_t conjunct;
  std::string from;
  std::string to;
  LabelId label;
};

std::optional<rel::WcojSpec> BuildWcojSpec(
    const std::vector<WcojAtomRow>& rows, const SnapshotStats& stats,
    ExplainInfo* explain) {
  std::vector<WcojCandidate> candidates;
  candidates.reserve(rows.size());
  for (const WcojAtomRow& r : rows) {
    WcojCandidate c;
    c.conjunct = r.conjunct;
    c.from = r.from;
    c.to = r.to;
    c.distinct_from = stats.DistinctSources(r.label);
    c.distinct_to = stats.DistinctTargets(r.label);
    candidates.push_back(std::move(c));
  }
  std::optional<WcojCore> core = DetectWcojCore(candidates);
  if (!core.has_value()) return std::nullopt;

  rel::WcojSpec spec;
  spec.vars = core->var_order;
  spec.conjuncts = core->conjuncts;
  auto var_index = [&spec](const std::string& v) -> uint32_t {
    for (size_t i = 0; i < spec.vars.size(); ++i) {
      if (spec.vars[i] == v) return static_cast<uint32_t>(i);
    }
    return UINT32_MAX;  // unreachable: group endpoints are core variables
  };
  for (size_t conjunct : core->conjuncts) {
    for (const WcojAtomRow& r : rows) {
      if (r.conjunct != conjunct) continue;
      rel::WcojSpec::AtomSpec a;
      a.from = var_index(r.from);
      a.to = var_index(r.to);
      a.label = r.label;
      spec.atoms.push_back(a);
    }
  }
  if (explain != nullptr) {
    explain->wcoj_vars = spec.vars;
    explain->wcoj_conjuncts = spec.conjuncts;
  }
  return spec;
}

// Detects a cyclic core among the wcoj-eligible atoms of a CRPQ /
// dl-CRPQ. Labels missing from the graph disqualify their atom (its
// relation is empty — the binary path disposes of the query instantly).
std::optional<rel::WcojSpec> PlanCrpqWcoj(const Crpq& q,
                                          const EdgeLabeledGraph& g,
                                          const SnapshotStats& stats,
                                          ExplainInfo* explain) {
  std::vector<WcojAtomRow> rows;
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    const CrpqAtom& atom = q.atoms[i];
    if (!WcojEligibleAtom(atom)) continue;
    std::optional<LabelId> label = g.FindLabel(atom.regex->atom().labels[0]);
    if (!label.has_value()) continue;
    rows.push_back({i, atom.from.name, atom.to.name, *label});
  }
  return BuildWcojSpec(rows, stats, explain);
}

// The CoreGQL analogue of WcojEligibleAtom: an anonymous-edge two-node
// chain `(x)-[:l]->(y)` with unlabeled, distinct node variables and no
// path variable. Returns the endpoints and the label name.
bool WcojEligibleEntry(const CoreMatchBlock::PatternEntry& entry,
                       std::string* from, std::string* to,
                       std::string* label) {
  if (entry.path_var.has_value() || entry.pattern == nullptr) return false;
  std::vector<const CorePattern*> leaves;
  // Flatten the concat spine; any non-atom node disqualifies.
  std::vector<const CorePattern*> stack = {entry.pattern.get()};
  while (!stack.empty()) {
    const CorePattern* p = stack.back();
    stack.pop_back();
    switch (p->kind()) {
      case CorePattern::Kind::kConcat:
        // Push right below left so leaves pop out left-to-right.
        stack.push_back(p->right().get());
        stack.push_back(p->left().get());
        break;
      case CorePattern::Kind::kNode:
      case CorePattern::Kind::kEdge:
        leaves.push_back(p);
        break;
      default:
        return false;
    }
  }
  if (leaves.size() != 3) return false;
  const CorePattern& n1 = *leaves[0];
  const CorePattern& e = *leaves[1];
  const CorePattern& n2 = *leaves[2];
  if (n1.kind() != CorePattern::Kind::kNode ||
      e.kind() != CorePattern::Kind::kEdge ||
      n2.kind() != CorePattern::Kind::kNode) {
    return false;
  }
  if (!n1.var().has_value() || n1.label().has_value()) return false;
  if (!n2.var().has_value() || n2.label().has_value()) return false;
  if (e.var().has_value() || !e.label().has_value()) return false;
  if (*n1.var() == *n2.var()) return false;
  *from = *n1.var();
  *to = *n2.var();
  *label = *e.label();
  return true;
}

std::optional<rel::WcojSpec> PlanCoreGqlWcoj(const CoreMatchBlock& block,
                                             const EdgeLabeledGraph& g,
                                             const SnapshotStats& stats,
                                             ExplainInfo* explain) {
  std::vector<WcojAtomRow> rows;
  for (size_t i = 0; i < block.patterns.size(); ++i) {
    std::string from, to, label;
    if (!WcojEligibleEntry(block.patterns[i], &from, &to, &label)) continue;
    std::optional<LabelId> id = g.FindLabel(label);
    if (!id.has_value()) continue;
    rows.push_back({i, std::move(from), std::move(to), *id});
  }
  return BuildWcojSpec(rows, stats, explain);
}

}  // namespace

Result<PlanPtr> CompilePlan(QueryLanguage language, const std::string& text,
                            const PropertyGraph& g, uint64_t graph_epoch,
                            const PlanOptions& /*options*/,
                            const SnapshotStats* stats) {
  auto plan = std::make_shared<Plan>();
  plan->language = language;
  plan->text = text;
  plan->graph_epoch = graph_epoch;

  switch (language) {
    case QueryLanguage::kRpq: {
      Result<RegexPtr> regex = ParseRegex(text, RegexDialect::kPlain);
      if (!regex.ok()) return AsParseError(regex.error());
      Nfa nfa = Nfa::FromRegex(*regex.value(), g.skeleton());
      plan->compiled = RpqPlan{std::move(regex).value(), std::move(nfa)};
      break;
    }
    case QueryLanguage::kCrpq: {
      Result<Crpq> query = ParseCrpq(text, RegexDialect::kPlain);
      if (!query.ok()) return AsParseError(query.error());
      Result<bool> valid = query.value().Validate();
      if (!valid.ok()) return AsParseError(valid.error());
      CrpqPlan compiled;
      compiled.query = std::move(query).value();
      std::vector<Conjunct> conjuncts;
      for (const CrpqAtom& atom : compiled.query.atoms) {
        compiled.atom_nfas.push_back(Nfa::FromRegex(*atom.regex, g.skeleton()));
        Conjunct c;
        c.vars = AtomVars(atom);
        c.label = AtomLabel(atom);
        if (stats != nullptr) {
          c.est_rows = EstimateCrpqAtom(*stats, compiled.atom_nfas.back(),
                                        atom.regex->Nullable(), atom)
                           .rows;
        }
        conjuncts.push_back(std::move(c));
      }
      compiled.join_order =
          OrderConjuncts(conjuncts, stats != nullptr, &compiled.explain);
      if (stats != nullptr) {
        compiled.wcoj = PlanCrpqWcoj(compiled.query, g.skeleton(), *stats,
                                     &compiled.explain);
      }
      plan->compiled = std::move(compiled);
      break;
    }
    case QueryLanguage::kDlCrpq: {
      Result<Crpq> query = ParseCrpq(text, RegexDialect::kDl);
      if (!query.ok()) return AsParseError(query.error());
      Result<bool> valid = query.value().Validate();
      if (!valid.ok()) return AsParseError(valid.error());
      DlCrpqPlan compiled;
      compiled.query = std::move(query).value();
      std::vector<Conjunct> conjuncts;
      for (const CrpqAtom& atom : compiled.query.atoms) {
        compiled.atom_nfas.push_back(DlNfa::FromRegex(*atom.regex, g));
        Conjunct c;
        c.vars = AtomVars(atom);
        c.label = AtomLabel(atom);
        if (stats != nullptr) {
          c.est_rows = EstimateDlCrpqAtom(*stats, compiled.atom_nfas.back(),
                                          atom.regex->Nullable(), atom)
                           .rows;
        }
        conjuncts.push_back(std::move(c));
      }
      compiled.join_order =
          OrderConjuncts(conjuncts, stats != nullptr, &compiled.explain);
      if (stats != nullptr) {
        compiled.wcoj = PlanCrpqWcoj(compiled.query, g.skeleton(), *stats,
                                     &compiled.explain);
      }
      plan->compiled = std::move(compiled);
      break;
    }
    case QueryLanguage::kCoreGql: {
      Result<CoreGqlQuery> query = ParseCoreGqlQuery(text);
      if (!query.ok()) return AsParseError(query.error());
      CoreGqlPlan compiled;
      compiled.query = PushDownConditions(query.value(), &compiled.pushdown);
      for (const CoreMatchBlock& block : compiled.query.blocks) {
        std::vector<Conjunct> conjuncts;
        for (const CoreMatchBlock::PatternEntry& entry : block.patterns) {
          Conjunct c;
          if (entry.path_var.has_value()) c.vars.push_back(*entry.path_var);
          std::vector<std::string> fv = entry.pattern->FreeVariables();
          c.vars.insert(c.vars.end(), fv.begin(), fv.end());
          c.label = (entry.path_var.has_value() ? *entry.path_var + " = " : "") +
                    entry.pattern->ToString();
          if (stats != nullptr) {
            c.est_rows =
                EstimateCorePattern(*stats, g.skeleton(), *entry.pattern);
          }
          conjuncts.push_back(std::move(c));
        }
        ExplainInfo explain;
        compiled.block_orders.push_back(
            OrderConjuncts(conjuncts, stats != nullptr, &explain));
        if (stats != nullptr) {
          compiled.block_wcoj.push_back(
              PlanCoreGqlWcoj(block, g.skeleton(), *stats, &explain));
        } else {
          compiled.block_wcoj.emplace_back();
        }
        compiled.block_explains.push_back(std::move(explain));
      }
      plan->compiled = std::move(compiled);
      break;
    }
    case QueryLanguage::kGqlGroup: {
      Result<CorePatternPtr> pattern = ParseCorePattern(text);
      if (!pattern.ok()) return AsParseError(pattern.error());
      plan->compiled = GqlGroupPlan{std::move(pattern).value()};
      break;
    }
    case QueryLanguage::kRegular: {
      Result<RegularQuery> query = ParseRegularQuery(text);
      if (!query.ok()) return AsParseError(query.error());
      plan->compiled = RegularPlan{std::move(query).value()};
      break;
    }
    case QueryLanguage::kPaths: {
      // dl dialect first (covers data tests), then plain — the shell's
      // historical behavior. Report the plain-dialect error on double
      // failure; it is the more common dialect.
      PathsPlan compiled;
      Result<RegexPtr> dl = ParseRegex(text, RegexDialect::kDl);
      if (dl.ok()) {
        compiled.dl_nfa = DlNfa::FromRegex(*dl.value(), g);
        compiled.regex = std::move(dl).value();
      } else {
        Result<RegexPtr> plain = ParseRegex(text, RegexDialect::kPlain);
        if (!plain.ok()) return AsParseError(plain.error());
        compiled.nfa = Nfa::FromRegex(*plain.value(), g.skeleton());
        compiled.regex = std::move(plain).value();
      }
      plan->compiled = std::move(compiled);
      break;
    }
  }

  return PlanPtr(std::move(plan));
}

Result<ConjunctiveRows> EvalConjunctivePlan(const Plan& plan,
                                            const PropertyGraph& g,
                                            const ConjunctiveRun& run) {
  Result<CrpqResult> r = Error(ErrorCode::kInvalidArgument,
                               "not a conjunctive plan");
  if (const auto* crpq = std::get_if<CrpqPlan>(&plan.compiled)) {
    CrpqEvalOptions options;
    if (run.max_results) options.max_bindings_per_pair = *run.max_results;
    if (run.max_path_length) options.max_path_length = *run.max_path_length;
    options.cancel = run.cancel;
    options.snapshot = run.snapshot;
    options.pool = run.pool;
    options.num_shards = run.num_shards;
    options.atom_nfas = &crpq->atom_nfas;
    options.join_order = &crpq->join_order;
    if (crpq->wcoj.has_value()) options.wcoj = &*crpq->wcoj;
    r = EvalCrpq(g.skeleton(), crpq->query, options);
  } else if (const auto* dl = std::get_if<DlCrpqPlan>(&plan.compiled)) {
    DlCrpqEvalOptions options;
    if (run.max_results) options.max_bindings_per_pair = *run.max_results;
    if (run.max_path_length) options.max_path_length = *run.max_path_length;
    options.cancel = run.cancel;
    options.snapshot = run.snapshot;
    options.atom_nfas = &dl->atom_nfas;
    options.join_order = &dl->join_order;
    if (dl->wcoj.has_value()) options.wcoj = &*dl->wcoj;
    r = EvalDlCrpq(g, dl->query, options);
  } else if (const auto* gql = std::get_if<CoreGqlPlan>(&plan.compiled)) {
    CoreQueryEvalOptions options;
    if (run.max_path_length) {
      options.path_options.max_path_length = *run.max_path_length;
    }
    if (run.max_results) options.path_options.max_results = *run.max_results;
    options.path_options.cancel = run.cancel;
    options.path_options.snapshot = run.snapshot;
    options.block_orders = &gql->block_orders;
    options.block_wcoj = &gql->block_wcoj;
    Result<CoreQueryResult> q = EvalCoreGqlQuery(g, gql->query, options);
    if (!q.ok()) return q.error();
    return ConjunctiveRows{q.value().relation.ToString(g.skeleton()),
                           q.value().relation.NumRows(), q.value().truncated};
  }
  if (!r.ok()) return r.error();
  return ConjunctiveRows{r.value().ToString(g.skeleton()),
                         r.value().rows.size(), r.value().truncated};
}

}  // namespace gqzoo
