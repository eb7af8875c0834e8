#ifndef GQZOO_GRAPH_DELTA_MERGE_H_
#define GQZOO_GRAPH_DELTA_MERGE_H_

#include <memory>
#include <vector>

#include "src/graph/csr.h"
#include "src/graph/delta/delta.h"
#include "src/graph/graph.h"

namespace gqzoo {

/// A merged read view: an overlay-mode `PropertyGraph` layering a delta
/// over its immutable base, plus a CSR snapshot splice-built for it. The
/// snapshot's shared_ptr pins the view graph, which in turn pins the base
/// generation — a reader holding these sees one consistent
/// `(base generation, delta sequence)` pair no matter what writers and the
/// compactor do meanwhile.
struct MergedGraph {
  std::shared_ptr<const PropertyGraph> graph;
  std::shared_ptr<const GraphSnapshot> snapshot;
  /// Label ids whose edge/node membership the delta changed — exactly the
  /// statistics the engine must recompute (`SnapshotStats` patch ctor).
  std::vector<LabelId> touched_labels;
};

/// Builds merged views and compacted base generations from a
/// `DeltaOverlay`. Both paths assign *compacted* ids — surviving base
/// elements keep their relative order, added elements follow in insertion
/// order — and pre-seed the label/property universes in base-id order, so
/// a merged view, the compacted graph it folds into, and a from-scratch
/// replay of the op log are all byte-identical when rendered (the delta
/// fuzzer's differential oracle) and cached plans' interned ids stay valid
/// across compaction.
class GraphDeltaMerger {
 public:
  /// Layers `overlay` over its base: materializes the edge table in the
  /// merged id space, borrows strings from the base, and splices the
  /// base CSR with the overlay's additions per node — no global re-sort, so
  /// the first read after a small mutation costs far less than a rebuild.
  static MergedGraph Merge(const DeltaOverlay& overlay);

  /// Folds `overlay` into a plain, self-contained `PropertyGraph` — the
  /// compactor's output, id-compatible with `Merge`'s view.
  static PropertyGraph Materialize(const DeltaOverlay& overlay);

  /// Replays `log` against `base` from scratch (validated ops only; an
  /// invalid op asserts). Reference semantics for the differential oracle
  /// and the off-lock phase of compaction. Does not retain `base`;
  /// `base_snapshot` must be built from it.
  static PropertyGraph Replay(const PropertyGraph& base,
                              const GraphSnapshot& base_snapshot,
                              const std::vector<MutationOp>& log);

 private:
  struct IdMap;
  static IdMap BuildIdMap(const DeltaOverlay& overlay);
};

}  // namespace gqzoo

#endif  // GQZOO_GRAPH_DELTA_MERGE_H_
