// gqzoo_serve: the network front-end. Binds a loopback TCP port, serves
// the wire protocol (src/server/wire.h) over a shared QueryEngine, and
// drains gracefully on SIGTERM/SIGINT: stop accepting, let in-flight
// queries finish against --drain-ms, cancel stragglers (their DONE
// reports UNAVAILABLE), flush the WAL, exit. Every write acked before the
// drain is durable after it.
//
// Usage:  gqzoo_serve [options]
//   --port <n>         port to bind (default 0 = ephemeral; the bound port
//                      prints on stdout as "listening on <port>")
//   --port-file <path> also write the bound port to <path> (for harnesses
//                      that need to discover an ephemeral port race-free)
//   --graph <file>     property graph to load (default: Figure 3 graph)
//   --persist <dir>    durable mode: recover from <dir> and log mutations
//   --no-fsync         page-cache durability only
//   --group-commit-ms <n>  fsync at most once per n ms
//   --threads <n>      engine pool size (default 4)
//   --capacity <n>     admission-control depth (default 256)
//   --timeout-ms <n>   default per-query deadline (0 = none)
//   --quota-qps <n>    per-tenant sustained queries/sec (0 = no quotas)
//   --quota-burst <n>  per-tenant burst allowance (0 = same as qps)
//   --drain-ms <n>     graceful-drain deadline (default 2000)
//   --max-sessions <n> concurrent connection cap (default 256)

#include <signal.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>

#include "src/engine/engine.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/graph_io.h"
#include "src/server/server.h"
#include "src/util/cli_flags.h"

using namespace gqzoo;

namespace {

// Signal handlers may only touch async-signal-safe state; the main loop
// polls this flag and runs the actual drain outside handler context.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int) { g_stop.store(true); }

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--port <n>] [--port-file <path>] [--graph <file>] "
          "[--persist <dir>] [--no-fsync] [--group-commit-ms <n>] "
          "[--threads <n>] [--capacity <n>] [--timeout-ms <n>] "
          "[--quota-qps <n>] [--quota-burst <n>] [--drain-ms <n>] "
          "[--max-sessions <n>]\n",
          argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // glibc raises its mmap threshold to the largest mapped block freed so
  // far (and its trim threshold to twice that). After the first large
  // join or reply buffer is freed, later ones are carved from the worker
  // threads' arenas and stay resident once the query ends, so the
  // server's resident set would depend on which worker ran which query.
  // Pinning the threshold at its initial 128 KiB turns that off: blocks
  // above it are mapped per allocation and returned on free. (The server
  // hands back the arenas' freed small blocks after heavy queries.)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  long long port = 0;
  std::string port_file;
  std::string graph_file;
  std::string persist_dir;
  bool no_fsync = false;
  long long group_commit_ms = 0;
  long long threads = 4;
  long long capacity = 256;
  long long timeout_ms = 0;
  long long quota_qps = 0;
  long long quota_burst = 0;
  long long drain_ms = 2000;
  long long max_sessions = 256;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto int_flag = [&](long long min, long long max,
                        long long* out) -> bool {
      return ParseFlagInt(arg, next(), min, max, out);
    };
    if (strcmp(arg, "--port") == 0) {
      if (!int_flag(0, 65535, &port)) return Usage(argv[0]);
    } else if (strcmp(arg, "--port-file") == 0) {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      port_file = value;
    } else if (strcmp(arg, "--graph") == 0) {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      graph_file = value;
    } else if (strcmp(arg, "--persist") == 0) {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      persist_dir = value;
    } else if (strcmp(arg, "--no-fsync") == 0) {
      no_fsync = true;
    } else if (strcmp(arg, "--group-commit-ms") == 0) {
      if (!int_flag(0, 60 * 1000, &group_commit_ms)) return Usage(argv[0]);
    } else if (strcmp(arg, "--threads") == 0) {
      if (!int_flag(1, 1024, &threads)) return Usage(argv[0]);
    } else if (strcmp(arg, "--capacity") == 0) {
      if (!int_flag(0, 1 << 20, &capacity)) return Usage(argv[0]);
    } else if (strcmp(arg, "--timeout-ms") == 0) {
      if (!int_flag(0, 86400LL * 1000, &timeout_ms)) return Usage(argv[0]);
    } else if (strcmp(arg, "--quota-qps") == 0) {
      if (!int_flag(0, 1 << 20, &quota_qps)) return Usage(argv[0]);
    } else if (strcmp(arg, "--quota-burst") == 0) {
      if (!int_flag(0, 1 << 20, &quota_burst)) return Usage(argv[0]);
    } else if (strcmp(arg, "--drain-ms") == 0) {
      if (!int_flag(0, 600 * 1000, &drain_ms)) return Usage(argv[0]);
    } else if (strcmp(arg, "--max-sessions") == 0) {
      if (!int_flag(0, 1 << 16, &max_sessions)) return Usage(argv[0]);
    } else {
      return Usage(argv[0]);
    }
  }

  PropertyGraph graph = Figure3Graph();
  if (!graph_file.empty()) {
    std::ifstream in(graph_file);
    if (!in) {
      fprintf(stderr, "cannot open graph '%s'\n", graph_file.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<PropertyGraph> parsed = ParsePropertyGraph(buffer.str());
    if (!parsed.ok()) {
      fprintf(stderr, "graph parse error: %s\n",
              parsed.error().message().c_str());
      return 1;
    }
    graph = std::move(parsed).value();
  }

  QueryEngine::Options options;
  options.num_threads = static_cast<size_t>(threads);
  options.governor.admission_capacity = static_cast<size_t>(capacity);
  if (timeout_ms > 0) {
    options.default_timeout = std::chrono::milliseconds(timeout_ms);
  }
  options.durability.dir = persist_dir;
  options.durability.fsync = !no_fsync;
  options.durability.group_commit_window_ms =
      group_commit_ms > 0 ? static_cast<uint32_t>(group_commit_ms) : 0;
  Result<std::unique_ptr<QueryEngine>> opened =
      QueryEngine::RecoverFrom(std::move(graph), std::move(options));
  if (!opened.ok()) {
    fprintf(stderr, "cannot open engine [%s]: %s\n",
            ErrorCodeName(opened.error().code()),
            opened.error().message().c_str());
    return 1;
  }
  std::unique_ptr<QueryEngine> engine = std::move(opened).value();
  if (!persist_dir.empty() && engine->recovery_info().recovered) {
    fprintf(stderr, "recovered from '%s': %llu batches replayed\n",
            persist_dir.c_str(),
            static_cast<unsigned long long>(
                engine->recovery_info().batches_replayed));
  }

  server::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(port);
  server_options.quota.queries_per_sec = static_cast<double>(quota_qps);
  server_options.quota.burst = static_cast<double>(quota_burst);
  server_options.drain_deadline = std::chrono::milliseconds(drain_ms);
  server_options.max_sessions = static_cast<size_t>(max_sessions);
  server::GraphServer graph_server(engine.get(), server_options);
  Result<bool> started = graph_server.Start();
  if (!started.ok()) {
    fprintf(stderr, "cannot start server: %s\n",
            started.error().message().c_str());
    return 1;
  }
  printf("listening on %u\n", graph_server.port());
  fflush(stdout);
  if (!port_file.empty()) {
    // Write-then-rename so a watcher never reads a half-written port.
    std::string tmp = port_file + ".tmp";
    FILE* f = fopen(tmp.c_str(), "w");
    if (f != nullptr) {
      fprintf(f, "%u\n", graph_server.port());
      fclose(f);
      rename(tmp.c_str(), port_file.c_str());
    }
  }

  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  while (!g_stop.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  fprintf(stderr, "draining (deadline %lldms)...\n", drain_ms);
  size_t sheds = graph_server.Shutdown();
  fprintf(stderr, "drain complete: %zu queries shed\n", sheds);
  fprintf(stderr, "%s", graph_server.StatsReport().c_str());
  // ~QueryEngine flushes the WAL again; the drain already did, so every
  // acked write is on disk even if this process is SIGKILLed right now.
  return 0;
}
