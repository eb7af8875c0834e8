#ifndef GQZOO_FUZZ_QUERY_GEN_H_
#define GQZOO_FUZZ_QUERY_GEN_H_

#include <string>
#include <vector>

#include "src/crpq/crpq.h"
#include "src/engine/language.h"
#include "src/fuzz/rng.h"
#include "src/graph/graph.h"

namespace gqzoo {
namespace fuzz {

/// Knobs for query generation. Depth/atom counts are kept small: the
/// interesting divergences come from operator *combinations*, not size,
/// and small queries minimize into readable repros.
struct QueryGenOptions {
  size_t max_regex_depth = 3;
  size_t max_atoms = 3;
  /// Percent of CRPQ endpoint terms that are node constants (`@n3`) —
  /// including, rarely, a constant naming a node that does not exist, to
  /// exercise error parity across legs.
  uint64_t constant_percent = 15;
  /// Percent of atoms that carry a list-variable capture (`^z1`).
  uint64_t capture_percent = 30;
  /// Percent of CRPQ / dl-CRPQ / CoreGQL cases generated as a cyclic core
  /// (triangle or 4-clique of single-label forward atoms over distinct
  /// variables) — exactly the shape the planner hands to the worst-case-
  /// optimal join, so the oracle's plan.no-wcoj leg compares the wcoj
  /// path with binary joins instead of trivially matching on acyclic queries.
  uint64_t cyclic_percent = 20;
};

/// A regex in the plain dialect over `labels` (atoms may also use `_`,
/// `!{...}`, `eps`, inverse `~l`, and — when `capture_names` is non-null —
/// captures `l^zK`, appending each fresh capture name to the vector).
std::string GenRegexText(FuzzRng* rng, const std::vector<std::string>& labels,
                         size_t depth, bool allow_inverse,
                         std::vector<std::string>* capture_names = nullptr);

/// A dl-dialect regex built from the battle-tested template shapes (label
/// atoms, property tests on "k", register writes/reads, stars and counted
/// repetitions).
std::string GenDlRegexText(FuzzRng* rng,
                           const std::vector<std::string>& labels,
                           std::vector<std::string>* capture_names = nullptr);

/// Query text for `language` over a graph generated with `labels`.
/// `g` supplies node names for constants/endpoints. For kPaths the
/// endpoints/mode are returned through the out-parameters.
std::string GenQueryText(FuzzRng* rng, QueryLanguage language,
                         const PropertyGraph& g,
                         const std::vector<std::string>& labels,
                         const QueryGenOptions& options,
                         std::string* paths_from = nullptr,
                         std::string* paths_to = nullptr,
                         PathMode* paths_mode = nullptr);

}  // namespace fuzz
}  // namespace gqzoo

#endif  // GQZOO_FUZZ_QUERY_GEN_H_
