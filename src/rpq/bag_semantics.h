#ifndef GQZOO_RPQ_BAG_SEMANTICS_H_
#define GQZOO_RPQ_BAG_SEMANTICS_H_

#include "src/graph/csr.h"
#include "src/regex/ast.h"
#include "src/util/biguint.h"

namespace gqzoo {

/// The SPARQL-1.1-draft (2012) bag semantics of property paths that
/// Section 6.1 warns about: the multiplicity of an answer `(u, v)` is the
/// number of distinct ways the expression can be matched, where a starred
/// subexpression `R*` is expanded along sequences of intermediate nodes
/// that are pairwise distinct (the W3C "ALP" procedure), with
/// multiplicities multiplying along a sequence and adding across
/// alternatives.
///
///   count(ε, u, v)       = [u = v]
///   count(a, u, v)       = #{ a-labeled edges u→v }
///   count(R1·R2, u, v)   = Σ_w count(R1, u, w) · count(R2, w, v)
///   count(R1+R2, u, v)   = count(R1, u, v) + count(R2, u, v)
///   count(R*, u, v)      = Σ over node sequences u = w0, w1, ..., wk = v
///                          (k ≥ 0, all wi pairwise distinct)
///                          Π_i count(R, w_{i-1}, w_i)
///
/// This reproduces the "more answers than protons in the observable
/// universe" blow-up of `(((a*)*)*)*` on a 6-clique (experiment E5).
/// Atom counting iterates only the out-slice of the atom's label.
/// Requires `s.NumNodes() <= 64` (the star expansion uses a node bitmask).
BigUint BagCount(const Regex& regex, const GraphSnapshot& s, NodeId u,
                 NodeId v);

/// Total multiplicity over all pairs: Σ_{u,v} BagCount(regex, s, u, v).
BigUint BagCountTotal(const Regex& regex, const GraphSnapshot& s);

}  // namespace gqzoo

#endif  // GQZOO_RPQ_BAG_SEMANTICS_H_
