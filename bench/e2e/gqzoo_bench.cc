// gqzoo_bench: the end-to-end benchmark. For one workload it spawns a
// gqzoo_serve child over a generated bank graph, checks the child's
// answers against the in-process engine, drives it over loopback from at
// most min(4, nproc) connections for a measured phase, and prints every
// end-to-end metric. With --trace 1 it repeats the measured phase against a
// fresh child while recording client-side spans, then replays the
// workload's distinct requests in-process (layers.cc) and prints the
// per-layer metrics instead.
//
//   gqzoo_bench --workload <lookup|analytics|paths|write_mix> --seed <n>
//               --seconds <n> --trace <0|1> [--smoke] [--results <dir>]
//               [--commit <sha>] [--dirty <0|1>]
//   gqzoo_bench --compare A.json... --against B.json...
//   gqzoo_bench --summarize R.json...
//
// It runs from the repository root (run.sh changes there first): the work
// and results directories are relative to it, and --compare reads the
// bounds from its BENCHMARK.json.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// A fuller record (provenance, sample counts, every layer metric) goes to
// <results>/<workload>-seed<n>-trace<t>.json; the server under test is the
// gqzoo_serve next to this binary, and temporary files live under
// .bench_build/work. Exit code 0 on success, 1 when a correctness gate
// fails or the run cannot complete, 2 on usage errors or a non-Release
// build, 3 when the watchdog stops a run that overran.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/e2e/bench.h"
#include "src/graph/graph_io.h"
#include "src/storage/durable.h"
#include "src/util/cli_flags.h"

namespace gqzoo::e2e {
namespace {

namespace fs = std::filesystem;

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  long long seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string results = ".bench_build/results";
  std::string commit = "unknown";
  std::string dirty = "unknown";
};

/// Whole-run cap, so a hung child cannot hang the benchmark: 120 s for
/// setup, gates and replay, plus each measured phase (warm-up + window).
unsigned WatchdogSeconds(const Flags& f) {
  return static_cast<unsigned>(120 + (f.trace ? 2 : 1) * (f.seconds + 5));
}

// --- child processes ---------------------------------------------------------

// Children registered for the watchdog (async-signal-safe access only).
constexpr int kMaxChildren = 8;
volatile sig_atomic_t g_children[kMaxChildren] = {};

void OnWatchdog(int) {
  for (int i = 0; i < kMaxChildren; ++i) {
    if (g_children[i] > 0) kill(static_cast<pid_t>(g_children[i]), SIGKILL);
  }
  static const char msg[] = "gqzoo_bench: watchdog expired\n";
  (void)!write(2, msg, sizeof(msg) - 1);
  _exit(3);
}

/// A gqzoo_serve child: started with its stdout on a pipe (it prints
/// "listening on <port>" once serving), stderr appended to a log file.
/// The destructor kills and reaps it, so no exit path leaves it running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error) {
    int out[2];
    if (pipe2(out, O_CLOEXEC) != 0) {
      *error = std::string("pipe: ") + strerror(errno);
      return false;
    }
    pid_t pid = fork();
    if (pid < 0) {
      *error = std::string("fork: ") + strerror(errno);
      close(out[0]);
      close(out[1]);
      return false;
    }
    if (pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(out[1], 1);
      int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) dup2(log, 2);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      _exit(127);
    }
    close(out[1]);
    pid_ = pid;
    out_fd_ = out[0];
    Register(pid);
    // Wait for "listening on <port>\n" (or the child's exit).
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (line.find('\n') == std::string::npos) {
      const int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now()).count());
      struct pollfd p = {out_fd_, POLLIN, 0};
      if (left <= 0 || poll(&p, 1, left) <= 0) {
        *error = "server did not report its port in time";
        return false;
      }
      char buf[128];
      ssize_t n = read(out_fd_, buf, sizeof(buf));
      if (n <= 0) {
        *error = "server exited during startup (see " + log_path + ")";
        return false;
      }
      line.append(buf, static_cast<size_t>(n));
    }
    unsigned port = 0;
    if (sscanf(line.c_str(), "listening on %u", &port) != 1 || port == 0 ||
        port > 65535) {
      *error = "unexpected server banner: " + line;
      return false;
    }
    port_ = static_cast<uint16_t>(port);
    return true;
  }

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// The child's peak resident set (VmHWM) in MiB; 0 if unreadable.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// SIGTERM (the graceful drain), then wait; SIGKILL after 30 s. True
  /// when the child exited with status 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (true) {
      pid_t r = waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0) {
        status = -1;
        break;
      }
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        status = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    Release();
    return status == 0;
  }

 private:
  void Kill() {
    if (pid_ <= 0) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    Release();
  }

  void Release() {
    Unregister(pid_);
    pid_ = -1;
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  static void Register(pid_t pid) {
    for (int i = 0; i < kMaxChildren; ++i) {
      if (g_children[i] == 0) {
        g_children[i] = pid;
        return;
      }
    }
  }
  static void Unregister(pid_t pid) {
    for (int i = 0; i < kMaxChildren; ++i) {
      if (g_children[i] == pid) g_children[i] = 0;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

bool ConnectClient(uint16_t port, server::Client* out, std::string* error) {
  Result<server::Client> c = server::Client::Connect("127.0.0.1", port);
  if (!c.ok()) {
    *error = "connect: " + c.error().message();
    return false;
  }
  Result<bool> hello = c.value().Hello("bench");
  if (!hello.ok()) {
    *error = "hello: " + hello.error().message();
    return false;
  }
  *out = std::move(c).value();
  return true;
}

/// Value of the whitespace-delimited token after `key` in a STATS report.
uint64_t StatValue(const std::string& report, const std::string& key) {
  std::istringstream in(report);
  std::string token;
  while (in >> token) {
    if (token == key) {
      std::string value;
      in >> value;
      return std::strtoull(value.c_str(), nullptr, 10);
    }
  }
  return 0;
}

// --- host probe and provenance -----------------------------------------------

/// A fixed CPU+memory probe written here and linking no gqzoo code: sort
/// 2^19 pseudo-random words, then 2^17 hash-map inserts. Median of three.
double HostCalibMs() {
  Samples ms;
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = Clock::now();
    std::vector<uint64_t> v(1 << 19);
    uint64_t x = 88172645463325252ULL;
    for (uint64_t& w : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      w = x;
    }
    std::sort(v.begin(), v.end());
    std::unordered_map<uint64_t, uint64_t> map;
    for (size_t i = 0; i < (1 << 17); ++i) map[v[i * 4] >> 3] = i;
    if (map.size() == 0) return -1;  // keeps the work observable
    ms.Add(MsBetween(start, Clock::now()));
  }
  return ms.Quantile(0.5);
}

std::string FirstLineWith(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FilesystemOf(const std::string& path) {
  struct statfs s;
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

double CpuSeconds() {
  struct rusage u;
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

// --- the measured phase ------------------------------------------------------

struct ReadRecord {
  Clock::time_point start, first_chunk, end;
  uint64_t latency_us = 0;
  uint64_t bytes = 0;
  uint32_t chunks = 0;
  int template_id = 0;
  bool ok = false;
};

struct WriteRecord {
  Clock::time_point scheduled, sent, acked;
  bool ok = false;
};

struct PhaseResult {
  std::vector<ReadRecord> reads;    // measured window only
  std::vector<WriteRecord> writes;  // measured window only
  size_t row_mismatches = 0;
  std::string mismatch_detail;
  double wall_s = 0;
  double client_cpu_frac = 0;
  std::string stats_before, stats_after;
  Clock::time_point window_start;
  Samples rss_mb;  // the server's resident set, sampled through the window
};

struct PhaseConfig {
  const WorkloadSpec* spec = nullptr;
  const BankGraph* bank = nullptr;
  uint64_t seed = 0;
  double warmup_s = 2;
  double seconds = 10;
  bool traced = false;
  /// analytics: rows every fixed text must return (from the gate).
  const std::unordered_map<std::string, uint64_t>* expected_rows = nullptr;
};

/// Resident set of process `pid` in MiB; 0 if unreadable.
double RssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/statm");
  double size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) / (1 << 20);
}

bool RunPhase(const PhaseConfig& cfg, uint16_t port, pid_t server_pid,
              WriteGenerator* writer, PhaseResult* out, std::string* error) {
  const WorkloadSpec& spec = *cfg.spec;
  std::vector<server::Client> clients(spec.readers);
  for (server::Client& c : clients) {
    if (!ConnectClient(port, &c, error)) return false;
  }
  server::Client writer_client;
  if (writer != nullptr && !ConnectClient(port, &writer_client, error)) {
    return false;
  }
  server::Client stats_client;
  if (!ConnectClient(port, &stats_client, error)) return false;

  const auto begin = Clock::now();
  const auto window_start =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.warmup_s));
  const auto window_end =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(cfg.seconds));
  out->window_start = window_start;

  std::vector<std::vector<ReadRecord>> per_reader(spec.readers);
  std::vector<Clock::time_point> last_end(spec.readers, window_start);
  std::vector<size_t> mismatches(spec.readers, 0);
  std::vector<std::string> mismatch_detail(spec.readers);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.readers; ++c) {
    threads.emplace_back([&, c] {
      ReadGenerator gen(spec, *cfg.bank, cfg.seed, c);
      std::vector<ReadRecord>& records = per_reader[c];
      std::mt19937_64 pause_rng(cfg.seed * 131 + c);
      std::uniform_real_distribution<double> unit(0, 1);
      while (true) {
        ReadRequest req = gen.Next();
        ReadRecord rec;
        rec.template_id = req.template_id;
        rec.start = Clock::now();
        if (rec.start >= window_end) break;
        std::function<bool(std::string_view)> on_chunk;
        if (cfg.traced) {
          on_chunk = [&rec](std::string_view chunk) {
            if (rec.chunks++ == 0) rec.first_chunk = Clock::now();
            rec.bytes += chunk.size();
            return true;
          };
        }
        Result<server::DoneStatus> done =
            clients[c].Query(req.text, WireOptions(req), on_chunk);
        rec.end = Clock::now();
        if (done.ok()) {
          rec.ok = done.value().ok;
          rec.latency_us = done.value().latency_us;
          if (rec.ok && cfg.expected_rows != nullptr) {
            auto it = cfg.expected_rows->find(req.text);
            if (it != cfg.expected_rows->end() &&
                it->second != done.value().num_rows) {
              if (mismatches[c]++ == 0) {
                mismatch_detail[c] = "'" + req.text + "' returned " +
                                     std::to_string(done.value().num_rows) +
                                     " rows, expected " +
                                     std::to_string(it->second);
              }
            }
          }
        } else {
          // Transport failure: count it, then try to continue on a fresh
          // connection.
          std::string ignored;
          if (!ConnectClient(port, &clients[c], &ignored)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
        }
        if (rec.start >= window_start) {
          records.push_back(rec);
          last_end[c] = rec.end;
        }
        // Pause for a random 0-10% of the round trip. Back-to-back closed
        // loops phase-lock to the kernel's timer tick whenever a response
        // waits on a delayed ACK, which turns latency into a step function
        // of engine time; the pause spreads request starts over the tick.
        const auto pause = std::chrono::duration<double>(
            unit(pause_rng) * 0.1 * (rec.end - rec.start));
        if (pause > std::chrono::microseconds(50)) {
          std::this_thread::sleep_for(pause);
        }
      }
    });
  }

  std::vector<WriteRecord> write_records;
  std::thread writer_thread;
  if (writer != nullptr) {
    writer_thread = std::thread([&] {
      // Open loop: batch i is due at begin + i/rate, whatever happened to
      // batch i-1; latency counts from the due time.
      const double rate = spec.writer_batches_per_s;
      for (uint64_t i = 0;; ++i) {
        const auto due = begin + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(i / rate));
        if (due >= window_end) break;
        std::this_thread::sleep_until(due);
        WriteRecord rec;
        rec.scheduled = due;
        rec.sent = Clock::now();
        Result<server::DoneStatus> done =
            writer_client.Mutate(writer->NextBatch());
        rec.acked = Clock::now();
        rec.ok = done.ok() && done.value().ok &&
                 done.value().num_rows == WriteGenerator::kOpsPerBatch;
        writer->Ack(rec.ok);
        if (!done.ok()) {
          std::string ignored;
          (void)ConnectClient(port, &writer_client, &ignored);
        }
        if (due >= window_start) write_records.push_back(rec);
      }
    });
  }

  std::this_thread::sleep_until(window_start);
  const double cpu_start = CpuSeconds();
  Result<std::string> before = stats_client.Stats();
  for (auto at = window_start; at < window_end;
       at += std::chrono::milliseconds(50)) {
    std::this_thread::sleep_until(at);
    out->rss_mb.Add(RssMb(server_pid));
  }
  for (std::thread& t : threads) t.join();
  if (writer_thread.joinable()) writer_thread.join();
  const auto phase_end = *std::max_element(last_end.begin(), last_end.end());
  const double cpu = CpuSeconds() - cpu_start;
  Result<std::string> after = stats_client.Stats();
  if (!before.ok() || !after.ok()) {
    *error = "STATS request failed";
    return false;
  }
  out->stats_before = before.value();
  out->stats_after = after.value();
  out->wall_s = std::chrono::duration<double>(phase_end - window_start).count();
  const double nproc = static_cast<double>(std::thread::hardware_concurrency());
  out->client_cpu_frac = out->wall_s > 0 ? cpu / (out->wall_s * nproc) : 0;
  for (size_t c = 0; c < spec.readers; ++c) {
    out->reads.insert(out->reads.end(), per_reader[c].begin(),
                      per_reader[c].end());
    out->row_mismatches += mismatches[c];
    if (out->mismatch_detail.empty()) out->mismatch_detail = mismatch_detail[c];
  }
  out->writes = std::move(write_records);
  return true;
}

// --- the run -----------------------------------------------------------------

struct Run {
  Flags flags;
  WorkloadSpec spec;
  BankGraph bank;
  size_t conns = 1;
  std::string serve;  // the gqzoo_serve binary
  std::string workdir;
  std::string graph_path;
  std::string prepared_dir;  // write_mix
  std::vector<std::vector<std::string>> prep_batches;
  std::unique_ptr<WriteGenerator> writer_after_prep;
  std::vector<Metric> metrics;   // printed on the last stdout line
  std::vector<Metric> details;   // results file only
  std::vector<std::string> failures;
  size_t attempted = 0;
  size_t failed = 0;
  std::map<std::string, double> durations_s;
};

void AddMetric(std::vector<Metric>* to, const std::string& name, double value,
               const std::string& unit, size_t samples) {
  to->push_back(Metric{name, value, unit, samples});
}

std::vector<std::string> ServerArgs(const Run& run, const std::string& dir,
                                    bool with_graph) {
  std::vector<std::string> args = {
      "--port", "0", "--threads", std::to_string(run.conns), "--timeout-ms",
      std::to_string(kQueryTimeoutMs)};
  if (with_graph) {
    args.push_back("--graph");
    args.push_back(run.graph_path);
  }
  if (!dir.empty()) {
    args.push_back("--persist");
    args.push_back(dir);
  }
  return args;
}

/// A fresh copy of the prepared persist dir, so every start recovers from
/// the same bytes.
bool FreshPersistDir(const Run& run, const std::string& name, std::string* dir,
                     std::string* error) {
  *dir = run.workdir + "/" + name;
  std::error_code ec;
  fs::remove_all(*dir, ec);
  fs::copy(run.prepared_dir, *dir, fs::copy_options::recursive, ec);
  if (ec) {
    *error = "copy persist dir: " + ec.message();
    return false;
  }
  return true;
}

/// write_mix only: initialize a persist dir from the graph, apply 64
/// writer batches over the wire, then SIGTERM — the state every measured
/// start recovers from (checkpoint decode + WAL replay + re-checkpoint).
bool PreparePersistDir(Run* run, std::string* error) {
  run->prepared_dir = run->workdir + "/prepared";
  ServerProcess server;
  if (!server.Start(run->serve, ServerArgs(*run, run->prepared_dir, true),
                    run->workdir + "/server.log", error)) {
    return false;
  }
  server::Client client;
  if (!ConnectClient(server.port(), &client, error)) return false;
  auto writer =
      std::make_unique<WriteGenerator>(run->bank.size, run->flags.seed);
  const size_t prep = run->flags.smoke ? 16 : 64;
  for (size_t i = 0; i < prep; ++i) {
    std::vector<std::string> ops = writer->NextBatch();
    Result<server::DoneStatus> done = client.Mutate(ops);
    const bool ok = done.ok() && done.value().ok;
    writer->Ack(ok);
    if (!ok) {
      *error = "preparation write failed: " +
               (done.ok() ? done.value().message : done.error().message());
      return false;
    }
    run->prep_batches.push_back(std::move(ops));
  }
  client.Close();
  if (!server.Stop()) {
    *error = "server did not drain cleanly after preparation";
    return false;
  }
  run->writer_after_prep = std::move(writer);
  return true;
}

/// Spawns a child and times spawn → first query answered.
bool StartServer(const Run& run, const std::string& persist_dir,
                 ServerProcess* server, double* setup_s, std::string* error) {
  const auto start = Clock::now();
  if (!server->Start(run.serve,
                     ServerArgs(run, persist_dir, persist_dir.empty()),
                     run.workdir + "/server.log", error)) {
    return false;
  }
  server::Client client;
  if (!ConnectClient(server->port(), &client, error)) return false;
  ReadRequest probe;
  probe.text = "q(y) :- Transfer(@a0, y)";
  Result<server::DoneStatus> done =
      client.Query(probe.text, WireOptions(probe));
  if (!done.ok() || !done.value().ok) {
    *error = "first query failed";
    return false;
  }
  *setup_s = std::chrono::duration<double>(Clock::now() - start).count();
  return true;
}

bool StartMeasuredServer(const Run& run, const std::string& name,
                         ServerProcess* server, std::string* persist_dir,
                         double* setup_s, std::string* error) {
  persist_dir->clear();
  if (run.spec.persist && !FreshPersistDir(run, name, persist_dir, error)) {
    return false;
  }
  return StartServer(run, *persist_dir, server, setup_s, error);
}

/// The in-process engine the gate compares against: same graph text, same
/// preparation writes.
std::unique_ptr<QueryEngine> LocalEngine(const Run& run, std::string* error) {
  Result<PropertyGraph> parsed = ParsePropertyGraph(run.bank.text);
  if (!parsed.ok()) {
    *error = "graph parse: " + parsed.error().message();
    return nullptr;
  }
  QueryEngine::Options options;
  options.num_threads = run.conns;
  auto engine =
      std::make_unique<QueryEngine>(std::move(parsed).value(), options);
  for (const std::vector<std::string>& lines : run.prep_batches) {
    MutationBatch batch;
    if (!ParseBatch(lines, &batch, error)) return nullptr;
    if (!engine->ApplyMutation(batch).ok()) {
      *error = "in-process preparation write failed";
      return nullptr;
    }
  }
  return engine;
}

/// Correctness gate: every sampled request over the wire must stream the
/// bytes and row count the in-process engine produces.
bool RunGate(const Run& run, uint16_t port,
             const std::vector<ReadRequest>& sample,
             std::unordered_map<std::string, uint64_t>* rows_by_text,
             std::string* error) {
  std::unique_ptr<QueryEngine> engine = LocalEngine(run, error);
  if (engine == nullptr) return false;
  server::Client client;
  if (!ConnectClient(port, &client, error)) return false;
  for (const ReadRequest& r : sample) {
    std::string streamed;
    Result<server::DoneStatus> done =
        client.Query(r.text, WireOptions(r), [&](std::string_view chunk) {
          streamed += chunk;
          return true;
        });
    Result<QueryResponse> local = engine->Execute(LocalRequest(r));
    const std::string what = "'" + r.text + "'" +
                             (r.from.empty() ? "" : " " + r.from + "->" + r.to);
    if (!done.ok() || !done.value().ok) {
      *error = "gate: wire query " + what + " failed: " +
               (done.ok() ? done.value().message : done.error().message());
      return false;
    }
    if (!local.ok()) {
      *error = "gate: in-process query " + what + " failed: " +
               local.error().message();
      return false;
    }
    if (streamed != local.value().text ||
        done.value().num_rows != local.value().num_rows) {
      *error = "gate: " + what + " streamed " +
               std::to_string(streamed.size()) + " bytes / " +
               std::to_string(done.value().num_rows) + " rows, in-process " +
               std::to_string(local.value().text.size()) + " bytes / " +
               std::to_string(local.value().num_rows) + " rows";
      return false;
    }
    (*rows_by_text)[r.text] = local.value().num_rows;
  }
  return true;
}

/// After write_mix: reopen the drained persist dir; every acked add must
/// be present and every acked delete absent.
bool CheckDurability(const std::string& dir, const WriteGenerator& writer,
                     std::string* error) {
  storage::DurabilityOptions options;
  options.dir = dir;
  Result<storage::DurableStore::Opened> opened =
      storage::DurableStore::Open(options, PropertyGraph());
  if (!opened.ok()) {
    *error = "reopen persist dir: " + opened.error().message();
    return false;
  }
  const PropertyGraph& g = *opened.value().graph;
  for (const std::string& name : writer.alive()) {
    if (!g.FindEdge(name).has_value()) {
      *error = "durability: acked edge " + name + " missing after reopen";
      return false;
    }
  }
  for (const std::string& name : writer.deleted()) {
    if (g.FindEdge(name).has_value()) {
      *error = "durability: acked delete of " + name + " lost after reopen";
      return false;
    }
  }
  return true;
}

Samples ReadLatencies(const PhaseResult& phase) {
  // A failed read misses every latency limit: it counts as infinitely slow.
  Samples s;
  for (const ReadRecord& r : phase.reads) {
    s.Add(r.ok ? MsBetween(r.start, r.end) : HUGE_VAL);
  }
  return s;
}

/// End-to-end metrics of one untraced phase.
void PhaseMetrics(Run* run, const PhaseResult& phase, double setup_s,
                  size_t setup_samples, double peak_rss_mb) {
  Samples read_ms = ReadLatencies(phase);
  size_t read_ok = 0;
  for (const ReadRecord& r : phase.reads) read_ok += r.ok ? 1 : 0;
  AddMetric(&run->metrics, "setup_s", setup_s, "s", setup_samples);
  AddMetric(&run->metrics, "throughput_qps",
            phase.wall_s > 0 ? static_cast<double>(read_ok) / phase.wall_s : 0,
            "1/s", read_ok);
  AddMetric(&run->metrics, "read_p50_ms", read_ms.Quantile(0.5), "ms",
            read_ms.size());
  // The tail is reported, not gated: on analytics and paths it is the
  // heaviest template's engine time, whose run-to-run spread on a shared
  // host exceeds the largest bound a gate may use (README.md).
  AddMetric(&run->details, std::string("read_") + kTail + "_ms",
            read_ms.Quantile(kTailQ), "ms", read_ms.size());
  // The median resident set, not the peak: the peak depends on which heavy
  // queries happen to overlap on the server's threads.
  AddMetric(&run->metrics, "rss_mb", phase.rss_mb.Quantile(0.5), "MiB",
            phase.rss_mb.size());
  AddMetric(&run->details, "peak_rss_mb", peak_rss_mb, "MiB", 1);
  // Smoke runs are seconds long: they check that every path works, not
  // that the tails are resolved.
  const bool enforce_samples = !run->flags.smoke;
  if (enforce_samples && read_ms.Beyond(kTailQ) < kMinBeyond) {
    run->failures.push_back(
        "read " + std::string(kTail) + " rests on " +
        std::to_string(read_ms.Beyond(kTailQ)) + " samples beyond it (" +
        std::to_string(read_ms.size()) + " reads); run longer");
  }

  size_t failed = phase.reads.size() - read_ok;
  Samples write_ms, lag_ms;
  for (const WriteRecord& w : phase.writes) {
    write_ms.Add(w.ok ? MsBetween(w.scheduled, w.acked) : HUGE_VAL);
    lag_ms.Add(MsBetween(w.scheduled, w.sent));
    failed += w.ok ? 0 : 1;
  }
  run->attempted = phase.reads.size() + phase.writes.size();
  run->failed = failed;
  AddMetric(&run->details, "failed_frac",
            run->attempted > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(run->attempted)
                               : 0,
            "fraction", run->attempted);
  if (!phase.writes.empty()) {
    AddMetric(&run->details, "write_p50_ms", write_ms.Quantile(0.5), "ms",
              write_ms.size());
    AddMetric(&run->details, "write_p90_ms", write_ms.Quantile(0.9), "ms",
              write_ms.size());
    AddMetric(&run->details, "writer.lag_ms.p99", lag_ms.Quantile(0.99), "ms",
              lag_ms.size());
    if (enforce_samples && write_ms.Beyond(0.9) < kMinBeyond) {
      run->failures.push_back("write p90 rests on fewer than 10 samples");
    }
  }
  // Per-template engine time, for the README's baseline split.
  const size_t templates = ReadGenerator::NumTemplates(run->spec.kind);
  for (size_t t = 0; t < templates; ++t) {
    Samples exec, rtt;
    for (const ReadRecord& r : phase.reads) {
      if (r.ok && r.template_id == static_cast<int>(t)) {
        exec.Add(static_cast<double>(r.latency_us) / 1000.0);
        rtt.Add(MsBetween(r.start, r.end));
      }
    }
    const std::string name =
        std::string("template.") +
        ReadGenerator::TemplateName(run->spec.kind, static_cast<int>(t));
    AddMetric(&run->details, name + ".exec_ms.p50", exec.Quantile(0.5), "ms",
              exec.size());
    AddMetric(&run->details, name + ".read_ms.p50", rtt.Quantile(0.5), "ms",
              rtt.size());
    AddMetric(&run->details, name + ".read_ms.p95", rtt.Quantile(0.95), "ms",
              rtt.size());
  }
}

/// Per-layer metrics visible from the wire (traced phase), plus counts
/// from the STATS frames around it.
void WireLayerMetrics(Run* run, const PhaseResult& traced,
                      const PhaseResult& untraced) {
  Samples overhead, exec, first_chunk, bytes, chunks;
  for (const ReadRecord& r : traced.reads) {
    if (!r.ok) continue;
    const double rtt = MsBetween(r.start, r.end);
    const double engine_ms = static_cast<double>(r.latency_us) / 1000.0;
    overhead.Add(rtt - engine_ms);
    exec.Add(engine_ms);
    if (r.chunks > 0) first_chunk.Add(MsBetween(r.start, r.first_chunk));
    bytes.Add(static_cast<double>(r.bytes));
    chunks.Add(r.chunks);
  }
  const size_t n = overhead.size();
  const double dn = n > 0 ? static_cast<double>(n) : 1;
  AddMetric(&run->metrics, "server.overhead_ms.p50", overhead.Quantile(0.5),
            "ms", n);
  AddMetric(&run->metrics, std::string("server.overhead_ms.") + kTail,
            overhead.Quantile(kTailQ), "ms", n);
  AddMetric(&run->metrics, "server.first_chunk_ms.p50",
            first_chunk.Quantile(0.5), "ms", first_chunk.size());
  AddMetric(&run->metrics, "server.bytes_per_read", bytes.Sum() / dn, "B", n);
  AddMetric(&run->metrics, "server.chunks_per_read", chunks.Sum() / dn,
            "count", n);
  AddMetric(&run->metrics, "engine.exec_ms.p50", exec.Quantile(0.5), "ms", n);
  AddMetric(&run->metrics, std::string("engine.exec_ms.") + kTail,
            exec.Quantile(kTailQ), "ms", n);

  auto delta = [&](const char* key) {
    return static_cast<double>(StatValue(traced.stats_after, key)) -
           static_cast<double>(StatValue(traced.stats_before, key));
  };
  const double hits = delta("cache_hits");
  const double misses = delta("cache_misses");
  AddMetric(&run->metrics, "engine.plan_cache.hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0, "ratio",
            static_cast<size_t>(hits + misses));

  const double writes = delta("write_batches");
  if (writes > 0) {
    AddMetric(&run->details, "engine.plans_invalidated_per_write",
              delta("plans_invalidated") / writes, "count",
              static_cast<size_t>(writes));
    AddMetric(&run->details, "engine.merged_views_per_write",
              delta("merged_view_builds") / writes, "count",
              static_cast<size_t>(writes));
    AddMetric(&run->details, "engine.compactions", delta("compactions_run"),
              "count", 1);
    Samples mutate_rtt;
    for (const WriteRecord& w : traced.writes) {
      if (w.ok) mutate_rtt.Add(MsBetween(w.sent, w.acked));
    }
    AddMetric(&run->details, "server.mutate_rtt_ms.p50",
              mutate_rtt.Quantile(0.5), "ms", mutate_rtt.size());
  }
  AddMetric(&run->metrics, "client.cpu_frac", traced.client_cpu_frac,
            "fraction", 1);
  // Tracing cost: read throughput lost against the untraced phase.
  auto qps = [](const PhaseResult& p) {
    size_t ok = 0;
    for (const ReadRecord& r : p.reads) ok += r.ok ? 1 : 0;
    return p.wall_s > 0 ? static_cast<double>(ok) / p.wall_s : 0;
  };
  const double base = qps(untraced);
  AddMetric(&run->metrics, "trace.overhead_pct",
            base > 0 ? 100.0 * (base - qps(traced)) / base : 0, "%", 2);
}

/// Spans of the traced phase: every write, and reads at an even stride so
/// that at most kMaxReadSpans are kept however fast the server is.
void AddSpans(const PhaseResult& phase, SpanLog* log, uint64_t* next_request) {
  constexpr size_t kMaxReadSpans = 20000;
  const size_t stride = phase.reads.size() / kMaxReadSpans + 1;
  for (size_t i = 0; i < phase.reads.size(); i += stride) {
    const ReadRecord& r = phase.reads[i];
    const uint64_t id = (*next_request)++;
    const int64_t root = log->Add("client.query", r.start, r.end, -1, id);
    if (!r.ok) continue;
    // The engine's own time, placed at the end of the round trip (DONE
    // follows the last row); the rest of the span is wire + server.
    const auto engine_us = std::min(
        std::chrono::microseconds(static_cast<int64_t>(r.latency_us)),
        std::chrono::duration_cast<std::chrono::microseconds>(r.end -
                                                              r.start));
    log->Add("engine.exec", r.end - engine_us, r.end, root, id);
    if (r.chunks > 0) {
      log->Add("client.first_chunk", r.first_chunk, r.first_chunk, root, id);
    }
  }
  for (const WriteRecord& w : phase.writes) {
    log->Add("client.mutate", w.scheduled, w.acked, -1, (*next_request)++);
  }
}

// --- output ------------------------------------------------------------------

std::string FormatValue(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += std::string(i == 0 ? "" : ", ") + "\"" + JsonEscape(m.name) +
           "\": {\"value\": " + FormatValue(m.value) + ", \"unit\": \"" +
           JsonEscape(m.unit) + "\"";
    if (samples) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string ProvenanceJson(const Run& run, double calib_ms) {
  struct utsname u;
  std::string kernel = uname(&u) == 0 ? std::string(u.sysname) + " " +
                                            u.release
                                      : "unknown";
  std::string out = "{";
  auto field = [&out](const std::string& k, const std::string& v) {
    out += (out.size() > 1 ? ", " : "") + std::string("\"") + k + "\": \"" +
           JsonEscape(v) + "\"";
  };
  field("commit", run.flags.commit);
  field("dirty", run.flags.dirty);
  field("build_type", GQZOO_E2E_BUILD_TYPE);
  field("compiler", GQZOO_E2E_CXX);
  field("nproc", std::to_string(std::thread::hardware_concurrency()));
  field("cpu_model", FirstLineWith("/proc/cpuinfo", "model name"));
  field("kernel", kernel);
  field("workdir_fs", FilesystemOf(run.workdir));
  field("seed", std::to_string(run.flags.seed));
  field("seconds", std::to_string(run.flags.seconds));
  field("smoke", run.flags.smoke ? "1" : "0");
  field("host_calib_ms", FormatValue(calib_ms));
  out += ", \"durations_s\": {";
  bool first = true;
  for (const auto& [k, v] : run.durations_s) {
    out += std::string(first ? "" : ", ") + "\"" + k + "\": " + FormatValue(v);
    first = false;
  }
  return out + "}}";
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    printf("  %-40s %14.6g %-8s (n=%zu)\n", m.name.c_str(), m.value,
           m.unit.c_str(), m.samples);
  }
}

// --- main --------------------------------------------------------------------

int Usage() {
  fprintf(stderr,
          "usage: gqzoo_bench --workload <lookup|analytics|paths|write_mix> "
          "--seed <n> --seconds <n> --trace <0|1> [--smoke] "
          "[--results <dir>] [--commit <sha>] [--dirty <0|1>]\n"
          "       gqzoo_bench --compare A.json... --against B.json...\n"
          "       gqzoo_bench --summarize R.json...\n");
  return 2;
}

bool Fail(Run* run, const std::string& what) {
  run->failures.push_back(what);
  fprintf(stderr, "gqzoo_bench: %s\n", what.c_str());
  return false;
}

bool Execute(Run* run) {
  const Flags& f = run->flags;
  std::string error;
  const auto t_run = Clock::now();
  auto stage = [&run](const std::string& name, Clock::time_point since) {
    run->durations_s[name] =
        std::chrono::duration<double>(Clock::now() - since).count();
  };

  auto t = Clock::now();
  run->bank = MakeBankGraph(BankOf(run->spec.scale), f.seed);
  run->graph_path = run->workdir + "/bank.graph";
  {
    std::ofstream out(run->graph_path, std::ios::binary);
    out << run->bank.text;
    if (!out) return Fail(run, "cannot write " + run->graph_path);
  }
  stage("generate", t);

  if (run->spec.persist) {
    t = Clock::now();
    if (!PreparePersistDir(run, &error)) return Fail(run, error);
    stage("prepare", t);
  }

  // Setup, several times: spawn → first query answered. Recovery-based
  // setup (write_mix) is slower and steadier, so it runs fewer trials.
  t = Clock::now();
  const int trials = f.smoke ? 2 : run->spec.persist ? 3 : 5;
  Samples setup_s;
  std::unique_ptr<ServerProcess> server;
  std::string persist_dir;
  for (int i = 0; i < trials; ++i) {
    server = std::make_unique<ServerProcess>();
    double s = 0;
    if (!StartMeasuredServer(*run, "measured", server.get(), &persist_dir, &s,
                             &error)) {
      return Fail(run, "setup: " + error);
    }
    setup_s.Add(s);
    if (i + 1 < trials && !server->Stop()) {
      return Fail(run, "setup trial did not drain cleanly");
    }
  }
  stage("setup", t);

  // Correctness gate.
  t = Clock::now();
  ReadGenerator sampler(run->spec, run->bank, f.seed, 1000);
  const bool anchored = run->spec.kind == WorkloadKind::kLookup ||
                        run->spec.kind == WorkloadKind::kWriteMix;
  const size_t per_template = anchored ? 8 : run->spec.kind ==
                                                     WorkloadKind::kAnalytics
                                                 ? 16
                                                 : 2;
  std::vector<ReadRequest> sample = sampler.Sample(per_template);
  std::unordered_map<std::string, uint64_t> rows_by_text;
  if (!RunGate(*run, server->port(), sample, &rows_by_text, &error)) {
    return Fail(run, error);
  }
  stage("gate", t);

  PhaseConfig cfg;
  cfg.spec = &run->spec;
  cfg.bank = &run->bank;
  cfg.seed = f.seed;
  cfg.warmup_s = f.smoke ? 0.3 : 2.0;
  cfg.seconds = static_cast<double>(f.seconds);
  if (run->spec.kind == WorkloadKind::kAnalytics) {
    cfg.expected_rows = &rows_by_text;
  }

  t = Clock::now();
  std::unique_ptr<WriteGenerator> writer;
  if (run->spec.persist) {
    writer = std::make_unique<WriteGenerator>(*run->writer_after_prep);
  }
  PhaseResult phase;
  if (!RunPhase(cfg, server->port(), server->pid(), writer.get(), &phase,
                &error)) {
    return Fail(run, "measured phase: " + error);
  }
  const double peak_rss_mb = server->PeakRssMb();
  if (!server->Stop()) return Fail(run, "server did not drain cleanly");
  stage("measure", t);
  if (phase.row_mismatches > 0) {
    return Fail(run, std::to_string(phase.row_mismatches) +
                         " reads returned wrong row counts: " +
                         phase.mismatch_detail);
  }
  if (run->spec.persist) {
    t = Clock::now();
    if (!CheckDurability(persist_dir, *writer, &error)) return Fail(run, error);
    stage("durability_check", t);
  }
  PhaseMetrics(run, phase, setup_s.Quantile(0.5), setup_s.size(), peak_rss_mb);

  if (f.trace) {
    // Traced repeat against a fresh child, then the in-process replay.
    t = Clock::now();
    ServerProcess traced_server;
    double ignored_setup = 0;
    if (!StartMeasuredServer(*run, "traced", &traced_server, &persist_dir,
                             &ignored_setup, &error)) {
      return Fail(run, "traced setup: " + error);
    }
    if (run->spec.persist) {
      writer = std::make_unique<WriteGenerator>(*run->writer_after_prep);
    }
    cfg.traced = true;
    PhaseResult traced;
    if (!RunPhase(cfg, traced_server.port(), traced_server.pid(), writer.get(),
                  &traced, &error)) {
      return Fail(run, "traced phase: " + error);
    }
    if (!traced_server.Stop()) return Fail(run, "traced server did not drain");
    stage("traced_measure", t);
    if (traced.row_mismatches > 0) {
      return Fail(run, "traced phase: wrong row counts: " +
                           traced.mismatch_detail);
    }
    const std::vector<Metric> e2e = std::move(run->metrics);
    run->metrics.clear();
    WireLayerMetrics(run, traced, phase);

    t = Clock::now();
    SpanLog log(phase.window_start);
    uint64_t next_request = 1;
    AddSpans(traced, &log, &next_request);
    ReplayInput input;
    input.spec = run->spec;
    input.graph_text = &run->bank.text;
    input.requests = sample;
    input.threads = run->conns;
    input.replay_dir = run->workdir + "/replay";
    input.prepared_dir = run->prepared_dir;
    if (run->spec.persist) {
      input.batches = run->prep_batches;
    }
    std::vector<Metric> layers;
    if (!ReplayLayers(input, &log, &layers, &error)) {
      return Fail(run, "replay: " + error);
    }
    stage("replay", t);
    for (Metric& m : layers) {
      // Replay metrics measured on every workload are printed; the rest
      // are workload-specific and land in the results file.
      static const std::unordered_set<std::string> printed = {
          std::string("engine.queue_ms.") + kTail, "engine.render_ms.p50",
          "engine.eval_ms.p50", "planner.compile_us.p50",
          "planner.stats_build_ms", "graph.parse_s", "graph.csr_build_ms"};
      (printed.count(m.name) > 0 ? run->metrics : run->details)
          .push_back(std::move(m));
    }
    for (Metric& m : log.SelfTimes()) run->details.push_back(std::move(m));
    // Server overhead on writes: MUTATE round trip minus in-process apply.
    double rtt = -1, apply = -1;
    for (const Metric& m : run->details) {
      if (m.name == "server.mutate_rtt_ms.p50") rtt = m.value;
      if (m.name == "engine.apply_durable_ms.p50") apply = m.value;
    }
    if (rtt >= 0 && apply >= 0) {
      AddMetric(&run->details, "server.mutate_overhead_ms.p50", rtt - apply,
                "ms", 1);
    }
    for (const Metric& m : e2e) run->details.push_back(m);

    std::error_code ec;
    fs::create_directories(f.results, ec);
    const std::string trace_path = f.results + "/" + run->spec.name + "-seed" +
                                   std::to_string(f.seed) + "-trace.json";
    std::ofstream out(trace_path);
    out << log.ToJson(200000);
  }
  run->durations_s["total"] =
      std::chrono::duration<double>(Clock::now() - t_run).count();
  return run->failures.empty();
}

int Main(int argc, char** argv) {
  Flags f;
  std::vector<std::string> compare_a, compare_b;
  bool compare = false, summarize = false;
  bool have_workload = false, have_seconds = false, have_trace = false;
  std::vector<std::string>* list = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto text = [&](std::string* out) {
      const char* v = next();
      if (v == nullptr) return false;
      *out = v;
      return true;
    };
    long long v = 0;
    if (arg == "--compare" || arg == "--summarize") {
      compare = true;
      summarize = arg == "--summarize";
      list = &compare_a;
    } else if (arg == "--against") {
      list = &compare_b;
    } else if (arg == "--workload") {
      if (!text(&f.workload)) return Usage();
      have_workload = true;
    } else if (arg == "--seed") {
      if (!ParseFlagInt("--seed", next(), 0, (1LL << 62), &v)) return Usage();
      f.seed = static_cast<uint64_t>(v);
    } else if (arg == "--seconds") {
      if (!ParseFlagInt("--seconds", next(), 1, 600, &f.seconds)) {
        return Usage();
      }
      have_seconds = true;
    } else if (arg == "--trace") {
      if (!ParseFlagInt("--trace", next(), 0, 1, &v)) return Usage();
      f.trace = v == 1;
      have_trace = true;
    } else if (arg == "--smoke") {
      f.smoke = true;
    } else if (arg == "--results") {
      if (!text(&f.results)) return Usage();
    } else if (arg == "--commit") {
      if (!text(&f.commit)) return Usage();
    } else if (arg == "--dirty") {
      if (!text(&f.dirty)) return Usage();
    } else if (list != nullptr && arg.rfind("--", 0) != 0) {
      list->push_back(arg);
    } else {
      return Usage();
    }
  }
  if (summarize) {
    return compare_a.empty() ? Usage() : RunSummarize(compare_a);
  }
  if (compare) {
    if (compare_a.empty() || compare_b.empty()) return Usage();
    return RunCompare(compare_a, compare_b);
  }
  if (!have_workload || (!f.smoke && (!have_seconds || !have_trace))) {
    return Usage();
  }
  if (std::string(GQZOO_E2E_BUILD_TYPE) != "Release") {
    fprintf(stderr, "gqzoo_bench: refusing a %s build; build Release\n",
            GQZOO_E2E_BUILD_TYPE);
    return 2;
  }
  if (f.smoke && !have_seconds) f.seconds = 1;

  Run run;
  run.flags = f;
  run.conns = std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  if (!FindWorkload(f.workload, run.conns, f.smoke, &run.spec)) return Usage();
  run.serve = (fs::path(argv[0]).parent_path() / "gqzoo_serve").string();
  std::error_code ec;
  run.workdir = ".bench_build/work/" + f.workload + "-seed" +
                std::to_string(f.seed) + "-" + std::to_string(getpid());
  fs::remove_all(run.workdir, ec);
  fs::create_directories(run.workdir, ec);
  if (ec) {
    fprintf(stderr, "gqzoo_bench: cannot create %s\n", run.workdir.c_str());
    return 1;
  }

  signal(SIGALRM, OnWatchdog);
  alarm(WatchdogSeconds(f));
  const double calib_ms = HostCalibMs();
  const bool ok = Execute(&run);
  alarm(0);

  if (!ok) {
    for (const std::string& why : run.failures) {
      fprintf(stderr, "gqzoo_bench: FAILED: %s\n", why.c_str());
    }
    fprintf(stderr, "gqzoo_bench: server log kept in %s\n",
            run.workdir.c_str());
    for (const Metric& m : run.metrics) {
      fprintf(stderr, "  (partial) %s = %g %s\n", m.name.c_str(), m.value,
              m.unit.c_str());
    }
    return 1;
  }
  AddMetric(f.trace ? &run.metrics : &run.details, "host.calib_ms", calib_ms,
            "ms", 3);

  std::vector<Metric> all = run.metrics;
  all.insert(all.end(), run.details.begin(), run.details.end());
  fs::create_directories(f.results, ec);
  const std::string results_path =
      f.results + "/" + f.workload + "-seed" + std::to_string(f.seed) +
      "-trace" + (f.trace ? "1" : "0") + ".json";
  {
    std::ofstream out(results_path);
    out << "{\"schema\": \"gqzoo-e2e/1\", \"workload\": \"" << f.workload
        << "\", \"trace\": " << (f.trace ? 1 : 0) << ", \"correct\": true"
        << ", \"attempted\": " << run.attempted << ", \"failed\": "
        << run.failed << ",\n \"provenance\": " << ProvenanceJson(run, calib_ms)
        << ",\n \"metrics\": " << MetricsJson(all, true) << "}\n";
  }
  fs::remove_all(run.workdir, ec);

  printf("workload %s  seed %llu  seconds %lld  trace %d  (results: %s)\n",
         f.workload.c_str(), static_cast<unsigned long long>(f.seed),
         f.seconds, f.trace ? 1 : 0, results_path.c_str());
  PrintTable(all);
  printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
         "\"metrics\": %s}\n",
         std::max<size_t>(run.attempted, 1), run.failed,
         MetricsJson(run.metrics, false).c_str());
  return 0;
}

}  // namespace
}  // namespace gqzoo::e2e

int main(int argc, char** argv) { return gqzoo::e2e::Main(argc, argv); }
