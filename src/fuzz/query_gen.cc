#include "src/fuzz/query_gen.h"

#include <cassert>

namespace gqzoo {
namespace fuzz {

namespace {

/// A node name for an endpoint/constant: usually a real node, rarely a
/// missing one (every leg must agree on the resulting error).
std::string PickNodeName(FuzzRng* rng, const PropertyGraph& g) {
  if (g.NumNodes() == 0 || rng->Percent(5)) return "nope";
  return std::string(g.NodeName(static_cast<NodeId>(rng->Index(g.NumNodes()))));
}

std::string PickLabel(FuzzRng* rng, const std::vector<std::string>& labels) {
  // One slot past the alphabet: a label the graph (probably) lacks, to
  // exercise the match-nothing predicate.
  size_t i = rng->Index(labels.size() + 1);
  return i < labels.size() ? labels[i] : "zz";
}

const char* PickMode(FuzzRng* rng) {
  switch (rng->Index(4)) {
    case 0: return "shortest";
    case 1: return "simple";
    case 2: return "trail";
    default: return "all";
  }
}

std::string GenCoreCondition(FuzzRng* rng,
                             const std::vector<std::string>& vars) {
  const std::string& x = vars[rng->Index(vars.size())];
  switch (rng->Index(5)) {
    case 0: return x + ".k = " + std::to_string(rng->Below(5));
    case 1: return x + ".k < " + std::to_string(rng->Below(5));
    case 2: return x + ".k >= " + std::to_string(rng->Below(5));
    case 3: return x + ":N";
    default: {
      const std::string& y = vars[rng->Index(vars.size())];
      return x + ".k = " + y + ".k";
    }
  }
}

/// `(x)-[e1:a]->(y:N)`-style linear patterns, optionally with a starred
/// group. Returns the pattern and the node variables it binds.
std::string GenCorePattern(FuzzRng* rng,
                           const std::vector<std::string>& labels,
                           std::vector<std::string>* node_vars,
                           size_t* edge_counter) {
  static const char* kNodeVars[] = {"x", "y", "z", "w"};
  std::string out;
  const size_t hops = rng->Range(1, 2);
  for (size_t h = 0; h <= hops; ++h) {
    std::string var = kNodeVars[h];
    node_vars->push_back(var);
    std::string node = "(" + var;
    if (rng->Percent(25)) node += ":" + std::string(rng->Percent(75) ? "N" : "M");
    node += ")";
    out += node;
    if (h == hops) break;
    if (h == 0 && rng->Percent(20)) {
      // A repetition group between the first two named nodes.
      out += " ( ()-[:" + PickLabel(rng, labels) + "]->() )";
      out += rng->Percent(50) ? "*" : "+";
      out += " ";
      continue;
    }
    std::string edge = "-[e" + std::to_string(++*edge_counter);
    if (rng->Percent(80)) edge += ":" + PickLabel(rng, labels);
    edge += "]->";
    out += " " + edge + " ";
  }
  return out;
}

/// A triangle (70%) or 4-clique of single-label forward atoms over
/// distinct variables — the cyclic-core shape the planner replaces with a
/// wcoj group (engine/plan.cc). Labels still go through PickLabel, so
/// match-nothing atoms (which disqualify their conjunct from the group and
/// push the case back to the binary path) stay in the mix, and the head
/// projects a random nonempty variable subset to exercise projection and
/// dedup over wcoj output.
std::string GenCyclicConjuncts(FuzzRng* rng, QueryLanguage language,
                               const std::vector<std::string>& labels) {
  static const char* kVars[] = {"x", "y", "z", "w"};
  const size_t n = rng->Percent(70) ? 3 : 4;
  std::string atoms;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!atoms.empty()) atoms += ", ";
      const std::string label = PickLabel(rng, labels);
      if (language == QueryLanguage::kDlCrpq) {
        atoms += "[" + label + "] (" + kVars[i] + ", " + kVars[j] + ")";
      } else {
        atoms += "(" + label + ")(" + kVars[i] + ", " + kVars[j] + ")";
      }
    }
  }
  std::string head;
  size_t picked = 0;
  for (size_t i = 0; i < n; ++i) {
    // Guarantee nonempty by always keeping the last variable if none made it.
    if (rng->Percent(70) || (picked == 0 && i + 1 == n)) {
      if (picked++ > 0) head += ", ";
      head += kVars[i];
    }
  }
  return "q(" + head + ") := " + atoms;
}

/// The CoreGQL cyclic analogue: comma-joined single-hop patterns forming a
/// triangle or 4-clique, occasionally with a WHERE condition (filters run
/// after the join stage, so they must see identical wcoj/binary output).
std::string GenCyclicCoreGql(FuzzRng* rng,
                             const std::vector<std::string>& labels) {
  static const char* kVars[] = {"x", "y", "z", "w"};
  const size_t n = rng->Percent(70) ? 3 : 4;
  std::vector<std::string> vars(kVars, kVars + n);
  std::string out = "MATCH ";
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!first) out += ", ";
      first = false;
      out += "(" + vars[i] + ")-[:" + PickLabel(rng, labels) + "]->(" +
             vars[j] + ")";
    }
  }
  if (rng->Percent(30)) out += " WHERE " + GenCoreCondition(rng, vars);
  out += " RETURN ";
  size_t picked = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rng->Percent(70) || (picked == 0 && i + 1 == n)) {
      if (picked++ > 0) out += ", ";
      out += vars[i];
    }
  }
  return out;
}

std::string GenCoreGqlBlock(FuzzRng* rng,
                            const std::vector<std::string>& labels,
                            const std::vector<std::string>& return_items) {
  std::vector<std::string> node_vars;
  size_t edge_counter = 0;
  std::string pattern = GenCorePattern(rng, labels, &node_vars, &edge_counter);
  std::string out = "MATCH " + pattern;
  if (rng->Percent(40)) {
    out += " WHERE " + GenCoreCondition(rng, node_vars);
    if (rng->Percent(25)) {
      out += rng->Percent(50) ? " AND " : " OR ";
      out += GenCoreCondition(rng, node_vars);
    }
  }
  out += " RETURN ";
  for (size_t i = 0; i < return_items.size(); ++i) {
    if (i > 0) out += ", ";
    out += return_items[i];
  }
  return out;
}

std::string GenGqlGroupPattern(FuzzRng* rng,
                               const std::vector<std::string>& labels) {
  // Group-variable semantics shine on repetitions; always include one.
  std::string inner = "()-[z:" + PickLabel(rng, labels) + "]->()";
  std::string rep;
  switch (rng->Index(4)) {
    case 0: rep = "( " + inner + " )*"; break;
    case 1: rep = "( " + inner + " )+"; break;
    case 2: rep = "( " + inner + " ){2}"; break;
    default:
      rep = "( ( " + inner + " ){2} )";
      rep += rng->Percent(50) ? "{2}" : "*";
      break;
  }
  std::string out = "(x) " + rep + " (y)";
  if (rng->Percent(30)) {
    out += " -[w:" + PickLabel(rng, labels) + "]-> (v)";
  }
  return out;
}

}  // namespace

std::string GenRegexText(FuzzRng* rng, const std::vector<std::string>& labels,
                         size_t depth, bool allow_inverse,
                         std::vector<std::string>* capture_names) {
  // Leaf atoms.
  if (depth == 0 || rng->OneIn(3)) {
    std::string atom;
    switch (rng->Index(10)) {
      case 0:
        atom = "_";
        break;
      case 1:
        if (labels.size() >= 2) {
          atom = "!{" + labels[0] + "," + labels[1] + "}";
        } else {
          atom = "!{" + labels[0] + "}";
        }
        break;
      case 2:
        atom = "eps";
        break;
      case 3:
        if (allow_inverse) {
          atom = "~" + PickLabel(rng, labels);
          break;
        }
        [[fallthrough]];
      default:
        atom = PickLabel(rng, labels);
        break;
    }
    if (capture_names != nullptr && atom != "eps" && atom[0] != '!' &&
        rng->Percent(35)) {
      std::string name = "z" + std::to_string(capture_names->size() + 1);
      capture_names->push_back(name);
      atom += "^" + name;
    }
    return atom;
  }
  std::string a = GenRegexText(rng, labels, depth - 1, allow_inverse,
                               capture_names);
  switch (rng->Index(6)) {
    case 0:
      return "(" + a + ") (" +
             GenRegexText(rng, labels, depth - 1, allow_inverse,
                          capture_names) +
             ")";
    case 1:
      return "(" + a + ") | (" +
             GenRegexText(rng, labels, depth - 1, allow_inverse,
                          capture_names) +
             ")";
    case 2:
      return "(" + a + ")*";
    case 3:
      return "(" + a + ")+";
    case 4:
      return "(" + a + ")?";
    default: {
      uint64_t lo = rng->Range(0, 2);
      uint64_t hi = lo + rng->Range(0, 2);
      return "(" + a + "){" + std::to_string(lo) + "," + std::to_string(hi) +
             "}";
    }
  }
}

std::string GenDlRegexText(FuzzRng* rng,
                           const std::vector<std::string>& labels,
                           std::vector<std::string>* capture_names) {
  auto label_atom = [&](bool allow_capture) {
    std::string atom = "[" + PickLabel(rng, labels);
    if (allow_capture && capture_names != nullptr && rng->Percent(40)) {
      std::string name = "z" + std::to_string(capture_names->size() + 1);
      capture_names->push_back(name);
      atom += "^" + name;
    }
    atom += "]";
    return atom;
  };
  const int64_t v = static_cast<int64_t>(rng->Below(5));
  switch (rng->Index(7)) {
    case 0:
      return "( ()" + label_atom(true) + " )+ ()";
    case 1:
      return "( ()" + label_atom(true) + " )* ()";
    case 2:
      return "( ()" + label_atom(false) + " ){" +
             std::to_string(rng->Range(1, 3)) + "} ()";
    case 3:
      // Register chain: strictly increasing edge property k.
      return "()" + label_atom(false) + "[x := k]( ()" + label_atom(false) +
             "[k > x][x := k] )* ()";
    case 4:
      // Node test at the start (property k on nodes).
      return "(k = " + std::to_string(v) + ")( " + label_atom(true) +
             " )+ ()";
    case 5:
      // Edge property test.
      return "( ()" + label_atom(false) + "[k >= " + std::to_string(v) +
             "] )+ ()";
    default:
      return "()" + label_atom(true) + "()" + label_atom(true) + "()";
  }
}

std::string GenQueryText(FuzzRng* rng, QueryLanguage language,
                         const PropertyGraph& g,
                         const std::vector<std::string>& labels,
                         const QueryGenOptions& options,
                         std::string* paths_from, std::string* paths_to,
                         PathMode* paths_mode) {
  assert(!labels.empty());
  switch (language) {
    case QueryLanguage::kRpq:
      return GenRegexText(rng, labels, options.max_regex_depth,
                          /*allow_inverse=*/rng->Percent(40));

    case QueryLanguage::kCrpq:
    case QueryLanguage::kDlCrpq: {
      if (rng->Percent(options.cyclic_percent)) {
        return GenCyclicConjuncts(rng, language, labels);
      }
      static const char* kVars[] = {"x", "y", "z", "w"};
      const size_t num_atoms = rng->Range(1, options.max_atoms);
      std::vector<std::string> endpoint_vars;
      std::vector<std::string> list_vars;
      std::string atoms;
      for (size_t i = 0; i < num_atoms; ++i) {
        if (i > 0) atoms += ", ";
        std::vector<std::string> captures;
        std::string regex;
        if (language == QueryLanguage::kDlCrpq) {
          regex = GenDlRegexText(
              rng, labels, rng->Percent(options.capture_percent)
                               ? &captures
                               : nullptr);
        } else {
          regex = GenRegexText(
              rng, labels, 2, /*allow_inverse=*/rng->Percent(30),
              rng->Percent(options.capture_percent) ? &captures : nullptr);
        }
        // List-variable names must be unique across atoms; suffix by atom.
        std::string suffixed = regex;
        if (!captures.empty()) {
          for (std::string& name : captures) {
            std::string fresh = name + "a" + std::to_string(i + 1);
            size_t pos = 0;
            while ((pos = suffixed.find("^" + name, pos)) !=
                   std::string::npos) {
              suffixed.replace(pos, name.size() + 1, "^" + fresh);
              pos += fresh.size() + 1;
            }
            name = fresh;
            list_vars.push_back(fresh);
          }
        }
        std::string mode;
        if (!captures.empty()) {
          // `all` over a cyclic graph has infinitely many list bindings;
          // weight toward the finite modes but keep `all` in the mix (the
          // truncation path is exactly where divergences hide).
          mode = rng->Percent(60) ? "shortest" : PickMode(rng);
          mode += " ";
        } else if (rng->Percent(20)) {
          mode = std::string(PickMode(rng)) + " ";
        }
        auto term = [&]() -> std::string {
          if (rng->Percent(options.constant_percent)) {
            return "@" + PickNodeName(rng, g);
          }
          std::string var = kVars[rng->Index(4)];
          endpoint_vars.push_back(var);
          return var;
        };
        std::string from = term();
        std::string to = term();
        if (language == QueryLanguage::kDlCrpq) {
          atoms += mode + suffixed + " (" + from + ", " + to + ")";
        } else {
          atoms += mode + "(" + suffixed + ")(" + from + ", " + to + ")";
        }
      }
      // Head: a nonempty subset of the variables we actually used.
      std::vector<std::string> pool = endpoint_vars;
      pool.insert(pool.end(), list_vars.begin(), list_vars.end());
      std::string head;
      if (pool.empty()) {
        head = "";  // boolean query: q() := ...
      } else {
        std::vector<std::string> picked;
        for (const std::string& var : pool) {
          bool already = false;
          for (const std::string& p : picked) already |= (p == var);
          if (!already && (picked.empty() || rng->Percent(60))) {
            picked.push_back(var);
          }
        }
        for (size_t i = 0; i < picked.size(); ++i) {
          if (i > 0) head += ", ";
          head += picked[i];
        }
      }
      return "q(" + head + ") := " + atoms;
    }

    case QueryLanguage::kCoreGql: {
      if (rng->Percent(options.cyclic_percent)) {
        return GenCyclicCoreGql(rng, labels);
      }
      std::vector<std::string> returns;
      returns.push_back("x");
      if (rng->Percent(40)) returns.push_back(rng->Percent(50) ? "y" : "x.k");
      std::string out = GenCoreGqlBlock(rng, labels, returns);
      if (rng->Percent(20)) {
        const char* op = rng->Percent(50)   ? " UNION "
                         : rng->Percent(50) ? " EXCEPT "
                                            : " INTERSECT ";
        out += op + GenCoreGqlBlock(rng, labels, returns);
      }
      return out;
    }

    case QueryLanguage::kGqlGroup:
      return GenGqlGroupPattern(rng, labels);

    case QueryLanguage::kPaths: {
      if (paths_from != nullptr) *paths_from = PickNodeName(rng, g);
      if (paths_to != nullptr) *paths_to = PickNodeName(rng, g);
      if (paths_mode != nullptr) {
        switch (rng->Index(4)) {
          case 0: *paths_mode = PathMode::kShortest; break;
          case 1: *paths_mode = PathMode::kSimple; break;
          case 2: *paths_mode = PathMode::kTrail; break;
          default: *paths_mode = PathMode::kAll; break;
        }
      }
      std::vector<std::string> captures;
      return GenRegexText(rng, labels, 2, /*allow_inverse=*/rng->Percent(30),
                          rng->Percent(30) ? &captures : nullptr);
    }

    case QueryLanguage::kRegular:
      // Regular queries mutate a working copy of the graph; the harness
      // does not generate them (DESIGN.md).
      return "";
  }
  return "";
}

}  // namespace fuzz
}  // namespace gqzoo
