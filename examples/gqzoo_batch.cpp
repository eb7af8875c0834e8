// gqzoo_batch: run a file of queries through the QueryEngine on a thread
// pool and print a metrics report — the non-interactive counterpart of
// gqzoo_shell, useful for load tests and for exercising the plan cache.
//
// Usage:  gqzoo_batch [options] <request-file>
//   --graph <file>     property graph to load (default: Figure 3 graph)
//   --persist <dir>    durable mode: recover from <dir>'s WAL + checkpoint
//                      (the --graph file only seeds a fresh directory) and
//                      log every mutation before acknowledging it
//   --no-fsync         do not fsync the WAL on commit (page-cache
//                      durability only)
//   --group-commit-ms <n>  fsync at most once per n ms (acks may precede
//                      their fsync by up to one window)
//   --threads <n>      pool size (default 4)
//   --timeout-ms <n>   per-query deadline (default: none)
//   --memlimit <n>     per-query memory budget in bytes (default: none)
//   --row-budget <n>   per-query result-row budget (default: none)
//   --step-budget <n>  per-query step/fuel budget (default: none)
//   --capacity <n>     admission-control queue depth; submissions beyond it
//                      are shed with OVERLOADED (default 256, 0 = unbounded)
//   --repeat <n>       run the request file n times (default 1; repeats
//                      after the first are plan-cache hits)
//   --explain          render each query's plan (conjunct join order +
//                      cardinality estimates) instead of executing it
//   --quiet            suppress per-query output, print only the report
//   --connect <host:port>  client mode: send the request file to a running
//                      gqzoo_serve over the wire protocol instead of an
//                      in-process engine (streamed rows print as chunks)
//   --tenant <name>    tenant id for --connect sessions (default "batch")
//
// Request-file format: one query or mutation per line, same surface as the
// shell.
//   # comment / blank lines are skipped
//   rpq <regex>              2rpq <regex>
//   paths <from> <to> <all|shortest|simple|trail> <regex>
//   kshortest <k> <from> <to> <regex>
//   crpq <rule>              dlcrpq <rule>
//   gql <query>              gqlgroup <pattern>
//   regular <rules>
//   add-node <name> <label>  add-edge <name> <src> <tgt> <label>
//   del-node <name>          del-edge <name>
//   set-label <node> <label> set-prop node|edge <name> <property> <value>
//
// Mutation lines go through the engine's delta-overlay write path at their
// position in the submission order, so a file can interleave reads and
// writes; queries already in flight keep their pinned pre-write view. With
// --repeat, mutations re-apply each round (an `add-node` repeats as a
// duplicate-name error on round two — write request files accordingly).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/engine/engine.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/delta/delta.h"
#include "src/graph/graph_io.h"
#include "src/server/client.h"
#include "src/util/cli_flags.h"

using namespace gqzoo;

namespace {

std::string Trim(const std::string& s) {
  size_t start = s.find_first_not_of(" \t");
  if (start == std::string::npos) return "";
  size_t end = s.find_last_not_of(" \t\r");
  return s.substr(start, end - start + 1);
}

/// One line of the request file: either a query (submitted to the pool) or
/// a mutation (applied through the delta write path in submission order).
struct BatchLine {
  bool is_mutation = false;
  QueryRequest request;  // when !is_mutation
  MutationOp op;         // when is_mutation
};

/// Parses one request line (shell query syntax). Returns false with
/// `*error` set on a malformed line.
bool ParseRequestLine(const std::string& line, QueryRequest* out,
                      std::string* error) {
  std::istringstream iss(line);
  std::string command;
  iss >> command;
  std::string rest;
  std::getline(iss, rest);
  rest = Trim(rest);

  QueryRequest request;
  if (command == "rpq" || command == "2rpq") {
    request.language = QueryLanguage::kRpq;
    request.text = rest;
  } else if (command == "crpq") {
    request.language = QueryLanguage::kCrpq;
    request.text = rest;
  } else if (command == "dlcrpq") {
    request.language = QueryLanguage::kDlCrpq;
    request.text = rest;
  } else if (command == "gql") {
    request.language = QueryLanguage::kCoreGql;
    request.text = rest;
  } else if (command == "gqlgroup") {
    request.language = QueryLanguage::kGqlGroup;
    request.text = rest;
  } else if (command == "regular") {
    request.language = QueryLanguage::kRegular;
    request.text = rest;
  } else if (command == "paths") {
    std::istringstream args(rest);
    std::string from, to, mode_name;
    if (!(args >> from >> to >> mode_name)) {
      *error = "paths needs: <from> <to> <mode> <regex>";
      return false;
    }
    std::string regex;
    std::getline(args, regex);
    request.language = QueryLanguage::kPaths;
    request.text = Trim(regex);
    request.paths.from = from;
    request.paths.to = to;
    request.paths.mode = mode_name == "shortest" ? PathMode::kShortest
                         : mode_name == "simple" ? PathMode::kSimple
                         : mode_name == "trail"  ? PathMode::kTrail
                                                 : PathMode::kAll;
  } else if (command == "kshortest") {
    std::istringstream args(rest);
    size_t k = 0;
    std::string from, to;
    if (!(args >> k >> from >> to) || k == 0) {
      *error = "kshortest needs: <k> <from> <to> <regex>";
      return false;
    }
    std::string regex;
    std::getline(args, regex);
    request.language = QueryLanguage::kPaths;
    request.text = Trim(regex);
    request.paths.from = from;
    request.paths.to = to;
    request.paths.k_shortest = k;
  } else {
    *error = "unknown query command '" + command + "'";
    return false;
  }
  *out = std::move(request);
  return true;
}

int Usage(const char* argv0) {
  fprintf(stderr,
          "usage: %s [--graph <file>] [--persist <dir>] [--no-fsync] "
          "[--group-commit-ms <n>] [--threads <n>] [--timeout-ms <n>] "
          "[--memlimit <n>] [--row-budget <n>] [--step-budget <n>] "
          "[--capacity <n>] [--repeat <n>] [--explain] "
          "[--quiet] [--connect <host:port>] [--tenant <name>] "
          "<request-file>\n",
          argv0);
  return 2;
}

/// Maps a parsed in-process request onto the wire options the client
/// sends, so `--connect` runs the same request file against a server.
server::ClientQueryOptions ToClientOptions(const QueryRequest& request) {
  server::ClientQueryOptions options;
  options.language = QueryLanguageName(request.language);
  if (request.timeout.has_value()) {
    options.timeout_ms = static_cast<uint32_t>(request.timeout->count());
  }
  options.explain = request.explain;
  options.paths_from = request.paths.from;
  options.paths_to = request.paths.to;
  options.paths_mode = request.paths.mode == PathMode::kShortest ? 1
                       : request.paths.mode == PathMode::kSimple ? 2
                       : request.paths.mode == PathMode::kTrail  ? 3
                                                                 : 0;
  options.k_shortest = static_cast<uint32_t>(request.paths.k_shortest);
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  std::string graph_file;
  std::string persist_dir;
  bool no_fsync = false;
  long long group_commit_ms = 0;
  std::string request_file;
  size_t threads = 4;
  long long timeout_ms = 0;
  long long memlimit = 0;
  long long row_budget = 0;
  long long step_budget = 0;
  size_t capacity = 256;
  size_t repeat = 1;
  bool explain = false;
  bool quiet = false;
  std::string connect;
  std::string tenant = "batch";

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Integer flags go through ParseFlagInt: a typo'd value is a usage
    // error, not a silent 0.
    auto int_flag = [&](long long min, long long max,
                        long long* out) -> bool {
      return ParseFlagInt(arg, next(), min, max, out);
    };
    long long v = 0;
    if (strcmp(arg, "--graph") == 0) {
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
      if (!int_flag(1, 1024, &v)) return Usage(argv[0]);
      threads = static_cast<size_t>(v);
    } else if (strcmp(arg, "--timeout-ms") == 0) {
      if (!int_flag(0, 86400LL * 1000, &timeout_ms)) return Usage(argv[0]);
    } else if (strcmp(arg, "--memlimit") == 0) {
      if (!int_flag(0, INT64_MAX, &memlimit)) return Usage(argv[0]);
    } else if (strcmp(arg, "--row-budget") == 0) {
      if (!int_flag(0, INT64_MAX, &row_budget)) return Usage(argv[0]);
    } else if (strcmp(arg, "--step-budget") == 0) {
      if (!int_flag(0, INT64_MAX, &step_budget)) return Usage(argv[0]);
    } else if (strcmp(arg, "--capacity") == 0) {
      if (!int_flag(0, 1 << 20, &v)) return Usage(argv[0]);
      capacity = static_cast<size_t>(v);
    } else if (strcmp(arg, "--repeat") == 0) {
      if (!int_flag(1, 1 << 20, &v)) return Usage(argv[0]);
      repeat = static_cast<size_t>(v);
    } else if (strcmp(arg, "--connect") == 0) {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      connect = value;
    } else if (strcmp(arg, "--tenant") == 0) {
      const char* value = next();
      if (value == nullptr) return Usage(argv[0]);
      tenant = value;
    } else if (strcmp(arg, "--explain") == 0) {
      explain = true;
    } else if (strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-') {
      return Usage(argv[0]);
    } else if (request_file.empty()) {
      request_file = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (request_file.empty() || threads == 0 || repeat == 0) {
    return Usage(argv[0]);
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
    Result<PropertyGraph> g = ParsePropertyGraph(buffer.str());
    if (!g.ok()) {
      fprintf(stderr, "graph parse error: %s\n", g.error().message().c_str());
      return 1;
    }
    graph = std::move(g).value();
  }

  std::ifstream in(request_file);
  if (!in) {
    fprintf(stderr, "cannot open requests '%s'\n", request_file.c_str());
    return 1;
  }
  std::vector<BatchLine> lines;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    BatchLine parsed;
    std::istringstream head(line);
    std::string verb;
    head >> verb;
    if (IsMutationCommand(verb)) {
      Result<MutationOp> op = ParseMutationOp(line);
      if (!op.ok()) {
        fprintf(stderr, "%s:%zu: %s\n", request_file.c_str(), lineno,
                op.error().message().c_str());
        return 1;
      }
      parsed.is_mutation = true;
      parsed.op = std::move(op).value();
    } else {
      QueryRequest request;
      std::string error;
      if (!ParseRequestLine(line, &request, &error)) {
        fprintf(stderr, "%s:%zu: %s\n", request_file.c_str(), lineno,
                error.c_str());
        return 1;
      }
      if (timeout_ms > 0) {
        request.timeout = std::chrono::milliseconds(timeout_ms);
      }
      if (memlimit > 0) {
        request.memory_budget = static_cast<uint64_t>(memlimit);
      }
      if (row_budget > 0) {
        request.row_budget = static_cast<uint64_t>(row_budget);
      }
      if (step_budget > 0) {
        request.step_budget = static_cast<uint64_t>(step_budget);
      }
      request.explain = explain;
      parsed.request = std::move(request);
    }
    lines.push_back(std::move(parsed));
  }
  if (lines.empty()) {
    fprintf(stderr, "no requests in '%s'\n", request_file.c_str());
    return 1;
  }

  if (!connect.empty()) {
    // Client mode: run the same request file against a gqzoo_serve
    // instance instead of an in-process engine. Requests go one at a
    // time over a single session (the server interleaves sessions; for
    // load generation see bench_server).
    size_t colon = connect.rfind(':');
    long long port = 0;
    if (colon == std::string::npos ||
        !ParseFlagInt("--connect port", connect.c_str() + colon + 1, 1,
                      65535, &port)) {
      return Usage(argv[0]);
    }
    Result<server::Client> connected = server::Client::Connect(
        connect.substr(0, colon), static_cast<uint16_t>(port));
    if (!connected.ok()) {
      fprintf(stderr, "cannot connect to '%s': %s\n", connect.c_str(),
              connected.error().message().c_str());
      return 1;
    }
    server::Client client = std::move(connected).value();
    Result<bool> hello = client.Hello(tenant);
    if (!hello.ok()) {
      fprintf(stderr, "HELLO failed: %s\n", hello.error().message().c_str());
      return 1;
    }
    size_t ok = 0, failed = 0, shed = 0, index = 0;
    const auto start = std::chrono::steady_clock::now();
    for (size_t round = 0; round < repeat; ++round) {
      for (const BatchLine& entry : lines) {
        Result<server::DoneStatus> done =
            entry.is_mutation
                ? client.Mutate({entry.op.ToString()})
                : client.Query(entry.request.text,
                               ToClientOptions(entry.request),
                               [&](std::string_view chunk) {
                                 if (!quiet) {
                                   fwrite(chunk.data(), 1, chunk.size(),
                                          stdout);
                                 }
                                 return true;
                               });
        if (!done.ok()) {
          fprintf(stderr, "connection lost at request %zu: %s\n", index,
                  done.error().message().c_str());
          return 1;
        }
        const server::DoneStatus& status = done.value();
        if (status.ok) {
          ++ok;
          if (!quiet && !entry.is_mutation) {
            printf("[%zu] -> %llu rows%s (%llu us)\n", index,
                   static_cast<unsigned long long>(status.num_rows),
                   status.truncated ? " (truncated)" : "",
                   static_cast<unsigned long long>(status.latency_us));
          }
        } else {
          ++failed;
          if (status.code == ErrorCode::kOverloaded) ++shed;
          if (!quiet) {
            printf("[%zu] -> error [%s]: %s\n", index,
                   ErrorCodeName(status.code), status.message.c_str());
          }
        }
        ++index;
      }
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    printf("\n%zu requests (%zu ok, %zu failed, %zu shed) in %.3fs over "
           "'%s'\n",
           index, ok, failed, shed, secs, connect.c_str());
    Result<std::string> stats = client.Stats();
    if (stats.ok()) printf("\n%s", stats.value().c_str());
    return failed == 0 ? 0 : 1;
  }

  QueryEngine::Options options;
  options.num_threads = threads;
  options.governor.admission_capacity = capacity;
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
  std::unique_ptr<QueryEngine> engine_ptr = std::move(opened).value();
  QueryEngine& engine = *engine_ptr;
  if (!persist_dir.empty()) {
    const storage::RecoveryInfo& info = engine.recovery_info();
    if (info.recovered) {
      fprintf(stderr,
              "recovered from '%s': checkpoint lsn %llu%s, %llu batches "
              "(%llu ops) replayed, last lsn %llu\n",
              persist_dir.c_str(),
              static_cast<unsigned long long>(info.checkpoint_lsn),
              info.mapped ? " (mapped)" : "",
              static_cast<unsigned long long>(info.batches_replayed),
              static_cast<unsigned long long>(info.ops_replayed),
              static_cast<unsigned long long>(info.last_lsn));
    } else {
      fprintf(stderr, "initialized durable directory '%s'\n",
              persist_dir.c_str());
    }
    if (!info.warning.empty()) {
      fprintf(stderr, "recovery warning: %s\n", info.warning.c_str());
    }
  }

  // Submission pass: queries fan out to the pool; mutation lines apply
  // synchronously at their position, so writes land between the reads that
  // surround them in the file (in-flight reads keep their pinned view).
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<Result<QueryResponse>>> futures;
  std::vector<const QueryRequest*> submitted;  // parallel to `futures`
  size_t mut_ok = 0, mut_failed = 0, mut_shed = 0;
  size_t compactions_scheduled = 0;
  for (size_t round = 0; round < repeat; ++round) {
    for (const BatchLine& entry : lines) {
      if (!entry.is_mutation) {
        submitted.push_back(&entry.request);
        futures.push_back(engine.Submit(entry.request));
        continue;
      }
      MutationBatch batch;
      batch.ops.push_back(entry.op);
      Result<QueryEngine::MutationResult> r = engine.ApplyMutation(batch);
      if (r.ok()) {
        ++mut_ok;
        compactions_scheduled += r.value().compaction_scheduled ? 1 : 0;
      } else {
        ++mut_failed;
        if (r.error().code() == ErrorCode::kOverloaded) ++mut_shed;
        if (!quiet) {
          printf("[write] %s -> error [%s]: %s\n", entry.op.ToString().c_str(),
                 ErrorCodeName(r.error().code()),
                 r.error().message().c_str());
        }
      }
    }
  }

  size_t ok = 0, failed = 0, shed = 0;
  // Per-case failure records for the exit summary: a non-OK status must be
  // visible (and the exit code nonzero) even under --quiet.
  struct FailedCase {
    size_t index;
    ErrorCode code;
    std::string query;
    std::string message;
  };
  std::vector<FailedCase> failures;
  std::map<ErrorCode, size_t> failures_by_code;
  for (size_t i = 0; i < futures.size(); ++i) {
    Result<QueryResponse> r = futures[i].get();
    const QueryRequest& request = *submitted[i];
    if (!r.ok() && r.error().code() == ErrorCode::kOverloaded) ++shed;
    if (!r.ok()) {
      failures.push_back({i, r.error().code(),
                          std::string(QueryLanguageName(request.language)) +
                              " " + request.text,
                          r.error().message()});
      ++failures_by_code[r.error().code()];
    }
    if (r.ok()) {
      ++ok;
      if (explain && !quiet) {
        printf("[%zu] %s %s%s\n%s", i, QueryLanguageName(request.language),
               request.text.c_str(), r.value().cache_hit ? " [cached]" : "",
               r.value().text.c_str());
      } else if (!quiet) {
        printf("[%zu] %s %s -> %zu rows%s%s (%lldus)\n", i,
               QueryLanguageName(request.language), request.text.c_str(),
               r.value().num_rows, r.value().truncated ? " (truncated)" : "",
               r.value().cache_hit ? " [cached]" : "",
               static_cast<long long>(r.value().latency.count()));
      }
    } else {
      ++failed;
      if (!quiet) {
        printf("[%zu] %s %s -> error [%s]: %s\n", i,
               QueryLanguageName(request.language), request.text.c_str(),
               ErrorCodeName(r.error().code()),
               r.error().message().c_str());
      }
    }
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  printf("\n%zu queries (%zu ok, %zu failed, %zu shed) in %.3fs  =  "
         "%.0f queries/sec  [%zu threads]\n",
         futures.size(), ok, failed, shed, secs,
         secs > 0 ? static_cast<double>(futures.size()) / secs : 0.0,
         engine.num_threads());
  if (mut_ok + mut_failed > 0) {
    printf("%zu writes (%zu ok, %zu failed, %zu shed); "
           "%zu compactions scheduled\n",
           mut_ok + mut_failed, mut_ok, mut_failed, mut_shed,
           compactions_scheduled);
  }
  printf("\n%s", engine.StatsReport().c_str());

  if (!failures.empty()) {
    printf("\nFAILED: %zu of %zu queries returned a non-OK status\n",
           failures.size(), futures.size());
    for (const auto& [code, count] : failures_by_code) {
      printf("  %-20s %zu\n", ErrorCodeName(code), count);
    }
    for (const FailedCase& f : failures) {
      printf("  [%zu] %s -> [%s] %s\n", f.index, f.query.c_str(),
             ErrorCodeName(f.code), f.message.c_str());
    }
  }
  return failed == 0 && mut_failed == 0 ? 0 : 1;
}
