#include "src/rpq/bag_semantics.h"

#include <cassert>
#include <unordered_map>

#include "src/util/interner.h"

namespace gqzoo {

namespace {

struct MemoKey {
  const Regex* regex;
  NodeId u;
  NodeId v;
  bool operator==(const MemoKey& o) const {
    return regex == o.regex && u == o.u && v == o.v;
  }
};

struct MemoKeyHash {
  size_t operator()(const MemoKey& k) const {
    size_t h = std::hash<const void*>()(k.regex);
    h = HashCombine(h, k.u);
    return HashCombine(h, k.v);
  }
};

class BagCounter {
 public:
  explicit BagCounter(const GraphSnapshot& s) : g_(s.graph()), snap_(s) {
    assert(g_.NumNodes() <= 64 && "bag counting uses a 64-bit node bitmask");
  }

  BigUint Count(const Regex& r, NodeId u, NodeId v) {
    MemoKey key{&r, u, v};
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    BigUint result = Compute(r, u, v);
    memo_.emplace(key, result);
    return result;
  }

 private:
  BigUint Compute(const Regex& r, NodeId u, NodeId v) {
    switch (r.op()) {
      case Regex::Op::kEpsilon:
        return BigUint(u == v ? 1 : 0);
      case Regex::Op::kAtom: {
        uint64_t count = 0;
        snap_.ForEachMatch(u, AtomPred(r.atom()), /*inverse=*/false,
                           [&](const GraphSnapshot::Hop& hop) {
                             if (hop.node == v) ++count;
                           });
        return BigUint(count);
      }
      case Regex::Op::kConcat: {
        BigUint total;
        for (NodeId w = 0; w < g_.NumNodes(); ++w) {
          BigUint left = Count(*r.left(), u, w);
          if (left.is_zero()) continue;
          total += left * Count(*r.right(), w, v);
        }
        return total;
      }
      case Regex::Op::kUnion:
        return Count(*r.left(), u, v) + Count(*r.right(), u, v);
      case Regex::Op::kOptional: {
        BigUint total = Count(*r.child(), u, v);
        if (u == v) total += BigUint(1);
        return total;
      }
      case Regex::Op::kStar:
        return StarCount(*r.child(), u, v);
      case Regex::Op::kPlus: {
        // R+ = R · R*: the 2012 draft treats the leading R as an ordinary
        // subexpression and the tail by ALP expansion.
        BigUint total;
        for (NodeId w = 0; w < g_.NumNodes(); ++w) {
          BigUint head = Count(*r.child(), u, w);
          if (head.is_zero()) continue;
          total += head * StarCount(*r.child(), w, v);
        }
        return total;
      }
    }
    return BigUint();
  }

  BigUint StarCount(const Regex& body, NodeId u, NodeId v) {
    BigUint total;
    if (u == v) total += BigUint(1);  // the empty expansion (k = 0)
    StarDfs(body, u, v, uint64_t{1} << u, BigUint(1), &total);
    return total;
  }

  // Extends a node-distinct sequence ending at `current` with one more
  // step; `acc` is the product of multiplicities so far.
  void StarDfs(const Regex& body, NodeId current, NodeId v, uint64_t visited,
               const BigUint& acc, BigUint* total) {
    for (NodeId w = 0; w < g_.NumNodes(); ++w) {
      if ((visited >> w) & 1) continue;
      BigUint step = Count(body, current, w);
      if (step.is_zero()) continue;
      BigUint extended = acc * step;
      if (w == v) *total += extended;
      StarDfs(body, w, v, visited | (uint64_t{1} << w), extended, total);
    }
  }

  // Resolves a regex atom to a LabelPred over this graph's interned labels
  // (unresolvable kOne → None, kTest → None).
  LabelPred AtomPred(const Atom& atom) {
    switch (atom.label_kind) {
      case Atom::LabelKind::kOne: {
        std::optional<LabelId> l = g_.FindLabel(atom.labels[0]);
        return l.has_value() ? LabelPred::One(*l) : LabelPred::None();
      }
      case Atom::LabelKind::kNegSet: {
        std::vector<LabelId> ids;
        for (const std::string& name : atom.labels) {
          std::optional<LabelId> l = g_.FindLabel(name);
          if (l.has_value()) ids.push_back(*l);
        }
        return LabelPred::NegSet(std::move(ids));
      }
      case Atom::LabelKind::kAny:
        return LabelPred::Any();
      case Atom::LabelKind::kTest:
        return LabelPred::None();
    }
    return LabelPred::None();
  }

  const EdgeLabeledGraph& g_;
  const GraphSnapshot& snap_;
  std::unordered_map<MemoKey, BigUint, MemoKeyHash> memo_;
};

}  // namespace

BigUint BagCount(const Regex& regex, const GraphSnapshot& s, NodeId u,
                 NodeId v) {
  BagCounter counter(s);
  return counter.Count(regex, u, v);
}

BigUint BagCountTotal(const Regex& regex, const GraphSnapshot& s) {
  BagCounter counter(s);
  BigUint total;
  for (NodeId u = 0; u < s.NumNodes(); ++u) {
    for (NodeId v = 0; v < s.NumNodes(); ++v) {
      total += counter.Count(regex, u, v);
    }
  }
  return total;
}

}  // namespace gqzoo
