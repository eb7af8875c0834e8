// `gqzoo_bench --compare A.json... --against B.json...`: applies the bounds
// of BENCHMARK.json to two sets of results files (one file per run, as
// gqzoo_bench writes them) and prints one row per (workload, metric):
// better, same, worse within bound, worse or unresolved, with each side's
// median, quartiles and run count. A row is unresolved when either side's
// quartile spread exceeds the bound, when a side has fewer than three
// runs, or when the sides' host.calib_ms medians differ by more than 5%
// (the host itself drifted between the two sets). `--summarize` prints the
// same medians and
// quartiles of one set as JSON (how bench/e2e/baselines.json was made).

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "bench/e2e/bench.h"

namespace gqzoo::e2e {

namespace {

/// Just enough JSON for results and BENCHMARK.json files.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  double number = 0;
  std::string text;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* Get(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  std::string Str(const std::string& key) const {
    const Json* v = Get(key);
    return v != nullptr && v->type == Type::kString ? v->text : "";
  }
  double Num(const std::string& key, double fallback) const {
    const Json* v = Get(key);
    if (v == nullptr) return fallback;
    if (v->type == Type::kNumber) return v->number;
    if (v->type == Type::kString) return std::strtod(v->text.c_str(), nullptr);
    return fallback;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  bool Parse(Json* out) {
    if (!Value(out)) return false;
    Skip();
    return pos_ == s_.size();
  }

 private:
  void Skip() {
    while (pos_ < s_.size() && isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool Eat(char c) {
    Skip();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(const char* word) {
    const size_t n = strlen(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (!Eat('"')) return false;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) return false;
            c = static_cast<char>(std::strtol(s_.substr(pos_, 4).c_str(),
                                              nullptr, 16));
            pos_ += 4;
            break;
          default: c = e; break;
        }
      }
      out->push_back(c);
    }
    return Eat('"');
  }
  bool Value(Json* out) {
    Skip();
    if (pos_ >= s_.size() || ++depth_ > 64) return false;
    const char c = s_[pos_];
    bool ok = true;
    if (c == '{') {
      out->type = Json::Type::kObject;
      ++pos_;
      if (!Eat('}')) {
        do {
          std::string key;
          Json value;
          ok = String(&key) && Eat(':') && Value(&value);
          if (ok) out->fields.emplace_back(std::move(key), std::move(value));
        } while (ok && Eat(','));
        ok = ok && Eat('}');
      }
    } else if (c == '[') {
      out->type = Json::Type::kArray;
      ++pos_;
      if (!Eat(']')) {
        do {
          Json value;
          ok = Value(&value);
          if (ok) out->items.push_back(std::move(value));
        } while (ok && Eat(','));
        ok = ok && Eat(']');
      }
    } else if (c == '"') {
      out->type = Json::Type::kString;
      ok = String(&out->text);
    } else if (Literal("true")) {
      out->type = Json::Type::kBool;
      out->number = 1;
    } else if (Literal("false")) {
      out->type = Json::Type::kBool;
    } else if (Literal("null")) {
      out->type = Json::Type::kNull;
    } else {
      char* end = nullptr;
      out->type = Json::Type::kNumber;
      out->number = std::strtod(s_.c_str() + pos_, &end);
      ok = end != s_.c_str() + pos_;
      if (ok) pos_ = static_cast<size_t>(end - s_.c_str());
    }
    --depth_;
    return ok;
  }

  const std::string& s_;
  size_t pos_ = 0;
  int depth_ = 0;
};

bool LoadJson(const std::string& path, Json* out) {
  std::ifstream in(path);
  if (!in) {
    fprintf(stderr, "compare: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  if (!JsonParser(buf.str()).Parse(out) || out->type != Json::Type::kObject) {
    fprintf(stderr, "compare: %s is not a JSON object\n", path.c_str());
    return false;
  }
  return true;
}

/// workload → metric → one value per run; plus host.calib_ms per workload
/// and the first file's provenance.
struct Side {
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, std::vector<double>> calib;
  const Json* provenance = nullptr;
  std::vector<Json> files;
};

bool LoadSide(const std::vector<std::string>& paths, Side* side) {
  side->files.resize(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    Json& results = side->files[i];
    if (!LoadJson(paths[i], &results)) return false;
    const std::string workload = results.Str("workload");
    const Json* metrics = results.Get("metrics");
    if (workload.empty() || metrics == nullptr) {
      fprintf(stderr, "compare: %s is not a gqzoo_bench results file\n",
              paths[i].c_str());
      return false;
    }
    for (const auto& [name, m] : metrics->fields) {
      const double v = m.Num("value", NAN);
      if (std::isfinite(v)) side->values[workload][name].push_back(v);
    }
    if (const Json* prov = results.Get("provenance")) {
      const double calib = prov->Num("host_calib_ms", NAN);
      if (std::isfinite(calib)) side->calib[workload].push_back(calib);
    }
  }
  if (!side->files.empty()) side->provenance = side->files[0].Get("provenance");
  return true;
}

/// Median and quartiles as Python's statistics.quantiles(values, n=4)
/// computes them (its default, exclusive method), so these spreads are the
/// ones the acceptance check sees.
struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
  size_t n = 0;
  double Spread() const {
    return median != 0 ? (q3 - q1) / std::fabs(median) : 0;
  }
};

Quartiles QuartilesOf(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  q.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n < 2) {
    q.q1 = q.q3 = v[0];
    return q;
  }
  const long long m = static_cast<long long>(n) + 1;
  auto cut = [&](long long i) {
    long long j = std::clamp<long long>(i * m / 4, 1,
                                        static_cast<long long>(n) - 1);
    const long long delta = i * m - j * 4;
    return (v[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

}  // namespace

int RunCompare(const std::vector<std::string>& base,
               const std::vector<std::string>& candidate) {
  // gqzoo_bench runs from the repository root, next to BENCHMARK.json.
  Json bench;
  if (!LoadJson("BENCHMARK.json", &bench)) return 2;
  const Json* e2e = bench.Get("end_to_end");
  if (e2e == nullptr || e2e->type != Json::Type::kArray) {
    fprintf(stderr, "compare: BENCHMARK.json has no end_to_end list\n");
    return 2;
  }
  Side a, b;
  if (!LoadSide(base, &a) || !LoadSide(candidate, &b)) return 2;

  printf("%-10s %-15s %11s %-22s %11s %-22s %7s  %s\n", "workload", "metric",
         "A median", "A [q1, q3] runs", "B median", "B [q1, q3] runs",
         "change", "verdict");
  int worse = 0;
  for (const auto& [workload, metrics] : a.values) {
    const auto other = b.values.find(workload);
    if (other == b.values.end()) continue;
    const double calib_a = QuartilesOf(a.calib[workload]).median;
    const double calib_b = QuartilesOf(b.calib[workload]).median;
    const bool host_drift =
        calib_a > 0 && std::fabs(calib_b - calib_a) / calib_a > 0.05;
    for (const Json& spec : e2e->items) {
      const std::string name = spec.Str("name");
      const double bound = spec.Num("bound", 0);
      const bool lower = spec.Str("better") == "lower";
      const auto ia = metrics.find(name);
      const auto ib = other->second.find(name);
      if (ia == metrics.end() || ib == other->second.end()) continue;
      const Quartiles qa = QuartilesOf(ia->second);
      const Quartiles qb = QuartilesOf(ib->second);
      const double change =
          qa.median != 0 ? (qb.median - qa.median) / std::fabs(qa.median) : 0;
      const double worse_by = lower ? change : -change;
      std::string verdict;
      if (qa.n < 3 || qb.n < 3) {
        verdict = "unresolved (fewer than 3 runs a side)";
      } else if (host_drift) {
        verdict = "unresolved (host.calib_ms moved >5%)";
      } else if (qa.Spread() > bound || qb.Spread() > bound) {
        verdict = "unresolved (spread above bound)";
      } else if (worse_by > bound) {
        verdict = "worse";
        ++worse;
      } else if (worse_by < -qa.Spread()) {
        // A gain must exceed A's own run-to-run spread (choosing-metrics §8).
        verdict = "better";
      } else if (worse_by > qa.Spread()) {
        // One bound serves every workload, so on a steady workload a real
        // loss can stay inside it; show it without failing the gate.
        verdict = "worse, within bound";
      } else {
        verdict = "same";
      }
      char ca[64], cb[64];
      snprintf(ca, sizeof(ca), "[%.4g, %.4g] %zu", qa.q1, qa.q3, qa.n);
      snprintf(cb, sizeof(cb), "[%.4g, %.4g] %zu", qb.q1, qb.q3, qb.n);
      printf("%-10s %-15s %11.5g %-22s %11.5g %-22s %+6.1f%%  %s\n",
             workload.c_str(), name.c_str(), qa.median, ca, qb.median, cb,
             100 * change, verdict.c_str());
    }
  }
  return worse > 0 ? 1 : 0;
}

int RunSummarize(const std::vector<std::string>& files) {
  Side side;
  if (!LoadSide(files, &side)) return 2;
  printf("{\"runs\": %zu, \"provenance\": {", files.size());
  if (side.provenance != nullptr) {
    bool first = true;
    for (const auto& [k, v] : side.provenance->fields) {
      if (v.type != Json::Type::kString || k == "seed") continue;
      printf("%s\"%s\": \"%s\"", first ? "" : ", ", JsonEscape(k).c_str(),
             JsonEscape(v.text).c_str());
      first = false;
    }
  }
  printf("},\n \"workloads\": {");
  bool first_workload = true;
  for (const auto& [workload, metrics] : side.values) {
    printf("%s\n  \"%s\": {", first_workload ? "" : ",",
           JsonEscape(workload).c_str());
    first_workload = false;
    bool first_metric = true;
    for (const auto& [name, values] : metrics) {
      const Quartiles q = QuartilesOf(values);
      printf("%s\n    \"%s\": {\"median\": %.6g, \"q1\": %.6g, "
             "\"q3\": %.6g, \"spread\": %.4f, \"runs\": %zu}",
             first_metric ? "" : ",", JsonEscape(name).c_str(), q.median, q.q1,
             q.q3, q.Spread(), q.n);
      first_metric = false;
    }
    printf("}");
  }
  printf("}}\n");
  return 0;
}

}  // namespace gqzoo::e2e
