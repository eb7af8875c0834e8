#include "src/crpq/eval.h"

#include <algorithm>
#include <set>

#include "src/crpq/join.h"
#include "src/rpq/rpq_eval.h"

namespace gqzoo {

namespace {

using crpq_internal::Dedupe;
using crpq_internal::NaturalJoin;
using crpq_internal::ProjectHead;
using crpq_internal::Relation;

// Builds the relation of one atom over its precompiled automaton.
// Columns: endpoint variables (if not constants), then the atom's list
// variables. Validation (constants, two-way × list vars) has already run
// for every atom, so lookups here cannot fail.
Relation EvalAtom(const EdgeLabeledGraph& g, const GraphSnapshot& snap,
                  const CrpqAtom& atom, const Nfa& nfa,
                  const CrpqEvalOptions& options, bool* truncated) {
  std::vector<std::string> list_vars = atom.regex->CaptureVariables();

  auto resolve = [&](const CrpqTerm& t) -> std::optional<NodeId> {
    return t.is_constant ? g.FindNode(t.name) : std::nullopt;
  };
  std::optional<NodeId> from_const = resolve(atom.from);
  std::optional<NodeId> to_const = resolve(atom.to);

  // Endpoint pairs of [[R]]_G, restricted by constants. The unconstrained
  // case — one product BFS per source node, the dominant cost of atom
  // seeding — is sharded across the pool.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  if (from_const.has_value()) {
    NodeId u = *from_const;
    for (NodeId v : EvalRpqFrom(snap, nfa, u, options.cancel)) {
      pairs.emplace_back(u, v);
    }
  } else {
    ParallelRpqOptions seed;
    seed.pool = options.pool;
    seed.num_shards = options.num_shards;
    seed.cancel = options.cancel;
    pairs = EvalRpqParallel(snap, nfa, seed);
  }
  if (to_const.has_value()) {
    NodeId v = *to_const;
    std::erase_if(pairs, [v](const auto& p) { return p.second != v; });
  }
  // Same variable at both endpoints is a self-join: R(x, x).
  const bool same_var = !atom.from.is_constant && !atom.to.is_constant &&
                        atom.from.name == atom.to.name;
  if (same_var) {
    std::erase_if(pairs, [](const auto& p) { return p.first != p.second; });
  }

  Relation rel;
  if (!atom.from.is_constant) rel.schema.push_back(atom.from.name);
  if (!atom.to.is_constant && !same_var) rel.schema.push_back(atom.to.name);
  for (const std::string& z : list_vars) rel.schema.push_back(z);

  EnumerationLimits limits;
  limits.max_results = options.max_bindings_per_pair;
  limits.max_length = options.max_path_length;
  limits.cancel = options.cancel;

  for (const auto& [u, v] : pairs) {
    if (ShouldStop(options.cancel)) {
      *truncated = true;
      break;
    }
    std::vector<CrpqValue> prefix;
    if (!atom.from.is_constant) prefix.push_back(u);
    if (!atom.to.is_constant && !same_var) prefix.push_back(v);
    if (list_vars.empty()) {
      // Modes act only through list variables (see eval.h): the atom
      // contributes the endpoint pair itself.
      if (!ChargeMemory(options.cancel,
                        prefix.size() * sizeof(CrpqValue) + 32)) {
        *truncated = true;
        break;
      }
      rel.rows.push_back(std::move(prefix));
      continue;
    }
    EnumerationStats stats;
    std::vector<PathBinding> bindings =
        CollectModePaths(snap, nfa, u, v, atom.mode, limits, &stats);
    if (stats.truncated) *truncated = true;
    if (stats.cancelled) break;
    // Distinct µ projections (several paths may induce the same µ).
    std::set<std::vector<CrpqValue>> seen;
    for (const PathBinding& pb : bindings) {
      std::vector<CrpqValue> row = prefix;
      for (const std::string& z : list_vars) row.push_back(pb.mu.Get(z));
      if (seen.insert(row).second) {
        if (!ChargeMemory(options.cancel,
                          row.size() * sizeof(CrpqValue) + 32)) {
          *truncated = true;
          break;
        }
        rel.rows.push_back(std::move(row));
      }
    }
    if (ShouldStop(options.cancel)) {
      *truncated = true;
      break;
    }
  }
  // A relation left partial by a trip is about to be thrown away by the
  // engine; don't burn time sorting it (same contract as the RPQ path).
  Dedupe(&rel, options.cancel);
  return rel;
}

}  // namespace

Result<CrpqResult> EvalCrpq(const EdgeLabeledGraph& g, const Crpq& q,
                            const CrpqEvalOptions& options) {
  if (options.snapshot == nullptr) {
    return Error(ErrorCode::kInvalidArgument,
                 "CRPQ evaluation needs a graph snapshot");
  }
  const GraphSnapshot& snap = *options.snapshot;
  Result<bool> valid = q.Validate();
  if (!valid.ok()) return valid.error();
  if (q.atoms.empty()) return Error("CRPQ has no atoms");

  // Compile (or borrow from the plan) every atom's automaton up front.
  std::vector<Nfa> local_nfas;
  const std::vector<Nfa>* nfas = options.atom_nfas;
  if (nfas == nullptr || nfas->size() != q.atoms.size()) {
    local_nfas.reserve(q.atoms.size());
    for (const CrpqAtom& atom : q.atoms) {
      local_nfas.push_back(Nfa::FromRegex(*atom.regex, g));
    }
    nfas = &local_nfas;
  }

  // Validate every atom before evaluating any, in textual order: which
  // error surfaces must not depend on the planner's join order or on an
  // early-out over an empty intermediate join.
  for (size_t i = 0; i < q.atoms.size(); ++i) {
    const CrpqAtom& atom = q.atoms[i];
    if ((*nfas)[i].HasInverse() &&
        !atom.regex->CaptureVariables().empty()) {
      return Error(
          "two-way atoms (~a) cannot be combined with list variables: paths "
          "are one-way (Remark 9)");
    }
    for (const CrpqTerm* t : {&atom.from, &atom.to}) {
      if (t->is_constant && !g.FindNode(t->name).has_value()) {
        return Error("unknown node constant '@" + t->name + "'");
      }
    }
  }

  const std::vector<size_t>* order = options.join_order;
  const bool use_order =
      order != nullptr && order->size() == q.atoms.size();

  const rel::WcojSpec* wcoj = options.wcoj;
  std::vector<bool> in_core(q.atoms.size(), false);
  if (wcoj != nullptr) {
    for (size_t i : wcoj->conjuncts) {
      if (i < q.atoms.size()) in_core[i] = true;
    }
  }

  bool truncated = false;
  Relation joined;
  bool first = true;
  if (wcoj != nullptr) {
    joined = crpq_internal::WcojRelation(snap, *wcoj, options.cancel);
    first = false;
  }
  for (size_t step = 0; step < q.atoms.size(); ++step) {
    const size_t idx = use_order ? (*order)[step] : step;
    if (wcoj != nullptr && in_core[idx]) continue;  // served by the wcoj
    if (ShouldStop(options.cancel)) {
      truncated = true;
      break;
    }
    if (!first && joined.rows.empty()) break;  // conjunction is empty
    Relation rel =
        EvalAtom(g, snap, q.atoms[idx], (*nfas)[idx], options, &truncated);
    if (first) {
      joined = std::move(rel);
      first = false;
    } else {
      joined = NaturalJoin(joined, rel, options.cancel, options.use_batch);
    }
    if (joined.rows.empty()) break;  // early out: conjunction is empty
  }

  CrpqResult result;
  result.head = q.head;
  result.truncated = truncated;
  if (!joined.rows.empty()) {
    ProjectHead(joined, q.head, &result.rows, options.cancel,
                options.use_batch);
  }
  return result;
}

}  // namespace gqzoo
