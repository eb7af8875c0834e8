#include "src/nested/regular_queries.h"

#include <set>

#include "src/crpq/crpq_parser.h"

namespace gqzoo {

namespace {

void CollectAtomLabels(const Regex& r, std::set<std::string>* out) {
  switch (r.op()) {
    case Regex::Op::kEpsilon:
      return;
    case Regex::Op::kAtom:
      for (const std::string& l : r.atom().labels) out->insert(l);
      return;
    case Regex::Op::kConcat:
    case Regex::Op::kUnion:
      CollectAtomLabels(*r.left(), out);
      CollectAtomLabels(*r.right(), out);
      return;
    case Regex::Op::kStar:
    case Regex::Op::kPlus:
    case Regex::Op::kOptional:
      CollectAtomLabels(*r.child(), out);
      return;
  }
}

std::set<std::string> LabelsUsedBy(const Crpq& q) {
  std::set<std::string> labels;
  for (const CrpqAtom& atom : q.atoms) {
    CollectAtomLabels(*atom.regex, &labels);
  }
  return labels;
}

}  // namespace

Result<RegularQuery> ParseRegularQuery(const std::string& text) {
  // Split on ';' (the lexer has no string literals spanning rules in this
  // syntax, but respect quotes anyway by simple scanning).
  std::vector<std::string> parts;
  std::string current;
  bool in_string = false;
  char quote = '\0';
  for (char c : text) {
    if (in_string) {
      current += c;
      if (c == quote) in_string = false;
      continue;
    }
    if (c == '"' || c == '\'') {
      in_string = true;
      quote = c;
      current += c;
      continue;
    }
    if (c == ';') {
      parts.push_back(current);
      current.clear();
      continue;
    }
    current += c;
  }
  if (!current.empty()) parts.push_back(current);
  // Drop whitespace-only parts.
  std::erase_if(parts, [](const std::string& s) {
    return s.find_first_not_of(" \t\r\n") == std::string::npos;
  });
  if (parts.empty()) return Error("empty regular query");

  RegularQuery query;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    Result<Crpq> rule = ParseCrpq(parts[i]);
    if (!rule.ok()) return rule.error();
    if (rule.value().head.size() != 2) {
      return Error("rule '" + rule.value().name +
                   "' must have exactly two head variables");
    }
    query.rules.push_back({rule.value().name, std::move(rule).value()});
  }
  Result<Crpq> main = ParseCrpq(parts.back());
  if (!main.ok()) return main.error();
  query.main = std::move(main).value();

  // Stratification check: a rule may only use earlier rules' names.
  std::set<std::string> defined;
  for (const RegularQueryRule& rule : query.rules) {
    for (const std::string& label : LabelsUsedBy(rule.query)) {
      bool is_later_rule = false;
      bool found = defined.count(label) > 0;
      if (!found) {
        for (const RegularQueryRule& other : query.rules) {
          if (other.name == label) {
            is_later_rule = true;
            break;
          }
        }
      }
      if (is_later_rule) {
        return Error("rule '" + rule.name + "' references rule '" + label +
                     "' which is not defined before it (regular queries are "
                     "non-recursive)");
      }
    }
    defined.insert(rule.name);
  }
  return query;
}

Result<CrpqResult> EvalRegularQuery(const EdgeLabeledGraph& g,
                                    const RegularQuery& query,
                                    const CrpqEvalOptions& options) {
  // Each rule materializes new edges into a plain mutable copy of the
  // graph (overlay and mapped graphs are immutable, hence
  // MaterializePlain), so every rule and the main query evaluate over a
  // fresh snapshot of the working copy as it stands at that point.
  EdgeLabeledGraph working = g.MaterializePlain();
  auto eval = [&](const Crpq& q) {
    GraphSnapshot snapshot(working);
    CrpqEvalOptions local = options;
    local.snapshot = &snapshot;
    return EvalCrpq(working, q, local);
  };
  for (const RegularQueryRule& rule : query.rules) {
    Result<CrpqResult> pairs = eval(rule.query);
    if (!pairs.ok()) return pairs;
    if (pairs.value().head.size() != 2) {
      return Error("rule '" + rule.name + "' did not produce a binary result");
    }
    LabelId label = working.InternLabel(rule.name);
    for (const auto& row : pairs.value().rows) {
      if (!std::holds_alternative<NodeId>(row[0]) ||
          !std::holds_alternative<NodeId>(row[1])) {
        return Error("rule '" + rule.name +
                     "' head must consist of endpoint variables");
      }
      working.AddEdge(std::get<NodeId>(row[0]), std::get<NodeId>(row[1]),
                      label);
    }
  }
  return eval(query.main);
}

}  // namespace gqzoo
