// gqzoo_shell: an interactive shell over the whole zoo. Load a property
// graph from the text format and run queries in any of the implemented
// languages. All query commands dispatch through the QueryEngine, so the
// shell gets plan caching, deadlines, and metrics for free.
//
// Usage:  gqzoo_shell [options] [graph-file]   (defaults to the Figure 3
//                                                graph)
//   --persist <dir>        durable mode: recover the graph from <dir>'s
//                          write-ahead log + checkpoint (creating them on
//                          first run; the graph-file argument only seeds a
//                          fresh directory), then log every mutation before
//                          acknowledging it
//   --no-fsync             do not fsync the WAL on commit (page-cache
//                          durability only: survives a process crash, not
//                          an OS crash)
//   --group-commit-ms <n>  fsync at most once per n ms; an ack may precede
//                          its fsync by up to one window
//
// Commands:
//   load <file>            load a property graph (gqzoo text format)
//   show                   print the current graph
//   rpq <regex>            evaluate an RPQ, print endpoint pairs
//   2rpq <regex>           same, regex may contain inverse atoms ~a
//   paths <from> <to> <mode> <regex>
//                          enumerate mode-restricted matching paths
//   kshortest <k> <from> <to> <regex>
//                          the k shortest matching paths
//   crpq <rule>            evaluate a CRPQ / l-CRPQ rule
//   dlcrpq <rule>          evaluate a dl-CRPQ rule (dl-dialect regexes)
//   gql <query>            run a CoreGQL MATCH/WHERE/RETURN query (WHERE
//                          conjuncts on labels and constants are pushed
//                          into the patterns first; `explain` counts them)
//   gqlgroup <pattern>     evaluate a pattern under GQL group-variable
//                          semantics (repetition collects lists)
//   regular <rules>        run a regular query (rules separated by ';')
//   explain <command...>   show the compiled plan (conjunct join order +
//                          cardinality estimates) instead of executing,
//                          e.g. `explain crpq q(x) :- a(x,y), b(y,z)`
//   add-node <name> <label>
//   add-edge <name> <src> <tgt> <label>
//   del-node <name> | del-edge <name>
//   set-label <node> <label>
//   set-prop node|edge <name> <property> <value>
//                          mutate the loaded graph through the delta
//                          overlay (no rebuild; readers see a merged view)
//   compact                fold the pending delta into a fresh base now
//   timeout <ms>           set the default per-query deadline (0 = off)
//   memlimit <bytes>       set the default per-query memory budget (0 = off)
//   stats                  engine metrics + plan-cache + delta report
//   help                   this text
//   quit

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>

#include "src/engine/engine.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/delta/delta.h"
#include "src/graph/graph_io.h"
#include "src/util/cli_flags.h"

using namespace gqzoo;

namespace {

constexpr const char* kHelp = R"(commands:
  load <file> | show | rpq <regex> | 2rpq <regex>
  paths <from> <to> <all|shortest|simple|trail> <regex>
  kshortest <k> <from> <to> <regex>
  crpq <rule> | dlcrpq <rule> | gql <query>
  gqlgroup <pattern> | regular <rules>
  explain <command...>   (plan + join order, no execution)
  add-node <name> <label> | add-edge <name> <src> <tgt> <label>
  del-node <name> | del-edge <name> | set-label <node> <label>
  set-prop node|edge <name> <property> <value> | compact
  timeout <ms> | memlimit <bytes> | stats | help | quit
)";

class Shell {
 public:
  /// Fails (returns a null engine inside) only when a durable directory is
  /// unrecoverable; the caller checks `ok()`.
  explicit Shell(QueryEngine::Options options) {
    const std::string dir = options.durability.dir;
    Result<std::unique_ptr<QueryEngine>> opened =
        QueryEngine::RecoverFrom(Figure3Graph(), std::move(options));
    if (!opened.ok()) {
      printf("error [%s]: %s\n", ErrorCodeName(opened.error().code()),
             opened.error().message().c_str());
      return;
    }
    engine_ = std::move(opened).value();
    if (engine_->durable()) {
      const storage::RecoveryInfo& info = engine_->recovery_info();
      if (info.recovered) {
        printf("recovered from '%s': checkpoint lsn %llu%s, %llu batches "
               "(%llu ops) replayed, last lsn %llu\n",
               dir.c_str(),
               static_cast<unsigned long long>(info.checkpoint_lsn),
               info.mapped ? " (mapped)" : "",
               static_cast<unsigned long long>(info.batches_replayed),
               static_cast<unsigned long long>(info.ops_replayed),
               static_cast<unsigned long long>(info.last_lsn));
      } else {
        printf("initialized durable directory '%s'\n", dir.c_str());
      }
      if (!info.warning.empty()) {
        printf("recovery warning: %s\n", info.warning.c_str());
      }
    }
  }

  bool ok() const { return engine_ != nullptr; }

  /// True when the durable directory already held state; a graph-file
  /// argument is ignored then so it cannot clobber recovered data.
  bool recovered() const {
    return ok() && engine_->durable() && engine_->recovery_info().recovered;
  }

  bool LoadFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      printf("cannot open '%s'\n", path.c_str());
      return false;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    Result<PropertyGraph> g = ParsePropertyGraph(buffer.str());
    if (!g.ok()) {
      printf("parse error: %s\n", g.error().message().c_str());
      return false;
    }
    PropertyGraph graph = std::move(g).value();
    printf("loaded %zu nodes, %zu edges\n", graph.NumNodes(),
           graph.NumEdges());
    engine_->SetGraph(std::move(graph));
    return true;
  }

  void Dispatch(const std::string& line) {
    std::istringstream iss(line);
    std::string command;
    iss >> command;
    std::string rest;
    std::getline(iss, rest);
    size_t start = rest.find_first_not_of(' ');
    rest = start == std::string::npos ? "" : rest.substr(start);

    if (command == "help") {
      printf("%s", kHelp);
    } else if (command == "explain") {
      // Re-dispatch the rest of the line with the EXPLAIN flag armed; any
      // query command works (`explain crpq ...`, `explain gql ...`).
      explain_ = true;
      Dispatch(rest);
      explain_ = false;
    } else if (command == "load") {
      LoadFile(rest);
    } else if (command == "show") {
      printf("%s", PropertyGraphToText(*engine_->graph_snapshot()).c_str());
    } else if (command == "stats") {
      printf("%s", engine_->StatsReport().c_str());
    } else if (command == "timeout") {
      SetTimeout(rest);
    } else if (command == "memlimit") {
      SetMemLimit(rest);
    } else if (command == "rpq" || command == "2rpq") {
      Run(MakeRequest(QueryLanguage::kRpq, rest));
    } else if (command == "paths") {
      RunPaths(rest);
    } else if (command == "kshortest") {
      RunKShortest(rest);
    } else if (command == "crpq") {
      Run(MakeRequest(QueryLanguage::kCrpq, rest));
    } else if (command == "dlcrpq") {
      Run(MakeRequest(QueryLanguage::kDlCrpq, rest));
    } else if (command == "gql") {
      Run(MakeRequest(QueryLanguage::kCoreGql, rest));
    } else if (command == "gqlgroup") {
      Run(MakeRequest(QueryLanguage::kGqlGroup, rest));
    } else if (command == "regular") {
      Run(MakeRequest(QueryLanguage::kRegular, rest));
    } else if (command == "compact") {
      printf(engine_->CompactNow()
                 ? "compacted: delta folded into a fresh base\n"
                 : "nothing to compact\n");
    } else if (IsMutationCommand(command)) {
      RunMutation(line);
    } else if (!command.empty()) {
      printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
  }

 private:
  static std::string Trim(const std::string& s) {
    size_t start = s.find_first_not_of(' ');
    return start == std::string::npos ? "" : s.substr(start);
  }

  static QueryRequest MakeRequest(QueryLanguage language,
                                  const std::string& text) {
    QueryRequest request;
    request.language = language;
    request.text = Trim(text);  // identical queries share a cache entry
    return request;
  }

  /// Runs through the engine and prints either the rendered rows or the
  /// error; the REPL survives both.
  void Run(QueryRequest request) {
    request.explain = explain_;
    Result<QueryResponse> r = engine_->Execute(request);
    if (!r.ok()) {
      printf("error [%s]: %s\n", ErrorCodeName(r.error().code()),
             r.error().message().c_str());
      return;
    }
    printf("%s", r.value().text.c_str());
  }

  /// One mutation line through the engine's delta write path.
  void RunMutation(const std::string& line) {
    Result<MutationOp> op = ParseMutationOp(line);
    if (!op.ok()) {
      printf("error [%s]: %s\n", ErrorCodeName(op.error().code()),
             op.error().message().c_str());
      return;
    }
    MutationBatch batch;
    batch.ops.push_back(std::move(op).value());
    Result<QueryEngine::MutationResult> r = engine_->ApplyMutation(batch);
    if (!r.ok()) {
      printf("error [%s]: %s\n", ErrorCodeName(r.error().code()),
             r.error().message().c_str());
      return;
    }
    printf("ok (%llu ops pending%s)\n",
           static_cast<unsigned long long>(r.value().pending_ops),
           r.value().compaction_scheduled ? ", compaction scheduled" : "");
  }

  void SetTimeout(const std::string& args) {
    std::istringstream iss(args);
    long long ms = -1;
    if (!(iss >> ms) || ms < 0) {
      printf("usage: timeout <ms>   (0 disables the deadline)\n");
      return;
    }
    if (ms == 0) {
      engine_->set_default_timeout(std::nullopt);
      printf("deadline disabled\n");
    } else {
      engine_->set_default_timeout(std::chrono::milliseconds(ms));
      printf("default deadline set to %lldms\n", ms);
    }
  }

  void SetMemLimit(const std::string& args) {
    std::istringstream iss(args);
    long long bytes = -1;
    if (!(iss >> bytes) || bytes < 0) {
      printf("usage: memlimit <bytes>   (0 disables the memory budget)\n");
      return;
    }
    ResourceBudgets budgets = engine_->default_budgets();
    budgets.memory_bytes = static_cast<uint64_t>(bytes);
    engine_->set_default_budgets(budgets);
    if (bytes == 0) {
      printf("memory budget disabled\n");
    } else {
      printf("default memory budget set to %lld bytes\n", bytes);
    }
  }

  void RunPaths(const std::string& args) {
    std::istringstream iss(args);
    std::string from, to, mode_name;
    iss >> from >> to >> mode_name;
    std::string regex;
    std::getline(iss, regex);
    QueryRequest request = MakeRequest(QueryLanguage::kPaths, regex);
    request.paths.from = from;
    request.paths.to = to;
    request.paths.mode = mode_name == "shortest" ? PathMode::kShortest
                         : mode_name == "simple" ? PathMode::kSimple
                         : mode_name == "trail"  ? PathMode::kTrail
                                                 : PathMode::kAll;
    Run(request);
  }

  void RunKShortest(const std::string& args) {
    std::istringstream iss(args);
    size_t k = 0;
    std::string from, to;
    if (!(iss >> k >> from >> to) || k == 0) {
      printf("usage: kshortest <k> <from> <to> <regex>\n");
      return;
    }
    std::string regex;
    std::getline(iss, regex);
    QueryRequest request = MakeRequest(QueryLanguage::kPaths, regex);
    request.paths.from = from;
    request.paths.to = to;
    request.paths.k_shortest = k;
    Run(request);
  }

  std::unique_ptr<QueryEngine> engine_;
  bool explain_ = false;  // armed by the `explain` prefix command
};

}  // namespace

int main(int argc, char** argv) {
  QueryEngine::Options options;
  std::string graph_file;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--persist") {
      if (i + 1 >= argc) {
        printf("--persist needs a directory argument\n");
        return 1;
      }
      options.durability.dir = argv[++i];
    } else if (arg == "--no-fsync") {
      options.durability.fsync = false;
    } else if (arg == "--group-commit-ms") {
      long long ms = 0;
      if (!ParseFlagInt("--group-commit-ms", i + 1 < argc ? argv[++i] : nullptr,
                        0, 60 * 1000, &ms)) {
        return 1;
      }
      options.durability.group_commit_window_ms = static_cast<uint32_t>(ms);
    } else if (!arg.empty() && arg[0] == '-') {
      printf("unknown flag '%s'\n", arg.c_str());
      return 1;
    } else {
      graph_file = arg;
    }
  }

  Shell shell(std::move(options));
  if (!shell.ok()) return 1;
  if (shell.recovered()) {
    if (!graph_file.empty()) {
      printf("ignoring '%s': the durable directory already holds a graph "
             "(use `load` to replace it explicitly)\n",
             graph_file.c_str());
    }
  } else if (!graph_file.empty()) {
    if (!shell.LoadFile(graph_file)) {
      printf("continuing with the paper's Figure 3 graph\n");
    }
  } else {
    printf("no graph file given; starting with the paper's Figure 3 graph\n");
  }
  printf("%s", kHelp);
  std::string line;
  while (printf("gqzoo> "), std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    shell.Dispatch(line);
  }
  return 0;
}
