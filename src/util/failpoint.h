#ifndef GQZOO_UTIL_FAILPOINT_H_
#define GQZOO_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace gqzoo {

/// Deterministic fault injection at named sites.
///
/// Graceful-degradation paths (budget exhaustion, cancellation, simulated
/// allocation failure) are hard to hit on demand from the outside — a test
/// either over-sizes the workload (slow, fragile) or never exercises the
/// unwind at all. A fail-point is a named hook compiled into the hot path;
/// tests arm it with `Failpoint::Arm("crpq.join.alloc", after_n)` and the
/// site fires exactly once on its `after_n`-th pass, then disarms itself.
///
/// The disarmed fast path is one relaxed atomic load of a global counter,
/// so production code pays essentially nothing for carrying the hooks.
///
/// Named sites in this codebase (grep for `Failpoint::ShouldFail`):
///   "rpq.product.bfs"     product-search BFS setup   → memory exhaustion
///                         (RPQ and dl reachability, PMR build)
///   "crpq.join.alloc"     join output-tuple alloc    → memory exhaustion
///   "crpq.wcoj.alloc"     wcoj result-tuple alloc    → memory exhaustion
///                         (crpq, dl-crpq, and coregql wcoj groups)
///   "coregql.frontier"    group-repeat frontier round → memory exhaustion
///   "pmr.enumerate.emit"  path-binding emission      → cancellation
///   "datatest.recurse"    product-search DFS step    → step-budget trip
///                         (dl paths, plain trail/simple paths)
///   "engine.submit"       engine admission           → forced shed
///   "engine.apply_mutation" write-batch admission    → forced write shed
///
/// Durability crash sites (see src/storage): these points are armed with
/// `ArmCrash` (or `ArmFromEnv` in a child process) and kill the process
/// mid-operation instead of returning an error, so recovery can be tested
/// against every interesting interleaving of write/fsync/rename:
///   "storage.wal.append.before"       before the record hits the file
///   "storage.wal.append.torn"         after `arg` bytes of the record
///   "storage.wal.append.before_sync"  record written, not yet fsynced
///   "storage.wal.append.after_sync"   record durable, ack not returned
///   "storage.ckpt.write.torn"         after `arg` bytes of the temp file
///   "storage.ckpt.before_rename"      temp durable, not yet visible
///   "storage.ckpt.after_rename"       checkpoint visible, WAL not rotated
///   "storage.wal.rotate.torn"         after `arg` bytes of the new WAL
///   "storage.wal.rotate.before_rename" new WAL durable, not yet visible
///   "storage.wal.rotate.after_rename" rotated, old checkpoints not pruned
class Failpoint {
 public:
  /// How a crash-armed point takes the process down when it fires.
  enum class CrashMode : uint8_t {
    kNone = 0,  // soft failure: ShouldFail returns true, process survives
    kExit,      // _exit(42): no destructors, no atexit, buffers dropped
    kKill,      // raise(SIGKILL): the kernel reaps us mid-instruction
  };

  /// Arms `name`: `ShouldFail(name)` returns false for the first `after_n`
  /// passes, fires (returns true) exactly once on the next pass, then the
  /// point disarms itself. Re-arming an armed point resets its pass count.
  static void Arm(const std::string& name, uint64_t after_n = 0);

  /// Arms `name` like `Arm`, additionally recording a crash mode and an
  /// integer argument (torn-write sites read it as "bytes to keep"). The
  /// mode and argument survive the point's fire-once self-disarm so the
  /// site can still consult them on its way down.
  static void ArmCrash(const std::string& name, CrashMode mode,
                       uint64_t after_n = 0, uint64_t arg = 0);

  /// The crash mode `name` was last armed with (kNone when never
  /// crash-armed). Readable after the point fired.
  static CrashMode CrashModeFor(const char* name);

  /// The integer argument `name` was last armed with (0 by default).
  static uint64_t ArgFor(const char* name);

  /// Kills the process via `name`'s armed crash mode (kExit semantics when
  /// the mode is kNone — callers use this for sites that always crash,
  /// e.g. simulated torn writes). Never returns.
  [[noreturn]] static void CrashNow(const char* name);

  /// CrashNow when `name` is crash-armed (mode != kNone); returns
  /// otherwise. The standard follow-up to a fired ShouldFail at sites that
  /// support both soft-error and crash injection.
  static void MaybeCrash(const char* name);

  /// Arms points from `getenv(env_var)`, a comma-separated list of
  /// `site[:mode[:after_n[:arg]]]` clauses with mode ∈ {exit, kill, fail}
  /// (default exit). Returns the number of points armed. The crash harness
  /// arms child processes this way (e.g.
  /// `GQZOO_FAILPOINTS=storage.wal.append.torn:exit:3:17`).
  static size_t ArmFromEnv(const char* env_var = "GQZOO_FAILPOINTS");

  /// Disarms `name` (no-op when not armed). Fire counts are retained.
  static void Disarm(const std::string& name);

  /// Disarms every point. Call from test teardown.
  static void DisarmAll();

  /// How many times `name` has fired since the process started.
  static uint64_t FireCount(const std::string& name);

  /// The injection site hook. `name` should be a string literal.
  static bool ShouldFail(const char* name) {
    if (armed_count_.load(std::memory_order_relaxed) == 0) return false;
    return ShouldFailSlow(name);
  }

 private:
  static bool ShouldFailSlow(const char* name);

  // Number of currently armed points; the fast-path gate.
  static inline std::atomic<int> armed_count_{0};
};

/// Test helper: arms a point for the current scope, disarms on exit.
class ScopedFailpoint {
 public:
  explicit ScopedFailpoint(std::string name, uint64_t after_n = 0)
      : name_(std::move(name)) {
    Failpoint::Arm(name_, after_n);
  }
  ~ScopedFailpoint() { Failpoint::Disarm(name_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string name_;
};

}  // namespace gqzoo

#endif  // GQZOO_UTIL_FAILPOINT_H_
