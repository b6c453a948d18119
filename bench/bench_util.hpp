// Shared helpers for the per-figure reproduction harnesses: each bench
// prints the paper-claimed value next to the measured value and returns a
// nonzero exit code when a measurement falls outside its tolerance band.
//
// Every harness also writes a machine-readable report with one shared
// schema ("pathview-bench-v2") so the perf trajectory is tracked across
// PRs and scripts/bench.sh can aggregate a BENCH_summary.json:
//   { "schema": "pathview-bench-v2", "name": ..., "title": ...,
//     "timestamp": ..., "git_rev": ..., "config": {...}, "passed": ...,
//     "metrics": [{"name", "value" [, "paper", "tol", "ok"]}],
//     "obs_counters": {...} }
// `timestamp` and `git_rev` are environment facts the binary must not
// invent, so they arrive via argv (--timestamp T --git-rev R, both set by
// scripts/bench.sh) and serialize as null when absent.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "pathview/obs/export.hpp"
#include "pathview/obs/obs.hpp"

namespace pathview::bench {

/// Report identity + provenance, parsed once in each harness's main().
struct Meta {
  std::string name;       // machine name, e.g. "serve_scaling"
  std::string timestamp;  // ISO-8601, from --timestamp; "" = unknown
  std::string git_rev;    // from --git-rev; "" = unknown
};

/// Build a Meta from the harness's argv: `--timestamp T` and `--git-rev R`
/// (both optional, both also accepted as --flag=value).
inline Meta meta_from_args(int argc, char** argv, std::string name) {
  Meta m;
  m.name = std::move(name);
  const auto grab = [&](const std::string& flag, std::string* out, int i) {
    const std::string a = argv[i];
    if (a == "--" + flag && i + 1 < argc) {
      *out = argv[i + 1];
    } else if (a.rfind("--" + flag + "=", 0) == 0) {
      *out = a.substr(flag.size() + 3);
    }
  };
  for (int i = 1; i < argc; ++i) {
    grab("timestamp", &m.timestamp, i);
    grab("git-rev", &m.git_rev, i);
  }
  return m;
}

class Report {
 public:
  explicit Report(const std::string& title, Meta meta = {})
      : title_(title), meta_(std::move(meta)) {
    std::printf("==== %s ====\n", title.c_str());
    std::printf("%-58s %12s %12s %8s\n", "quantity", "paper", "measured",
                "ok?");
  }

  /// Record a configuration fact (workload size, thread count, flags) —
  /// serialized under "config", not as a metric.
  void config(const std::string& key, const std::string& value) {
    config_.emplace_back(key, "\"" + escape(value) + "\"");
  }
  void config(const std::string& key, double value) {
    config_.emplace_back(key, num(value));
  }

  /// Record one row; `tol` is the allowed absolute deviation.
  void row(const std::string& what, double paper, double measured,
           double tol) {
    const bool ok = std::fabs(measured - paper) <= tol;
    std::printf("%-58s %12.3f %12.3f %8s\n", what.c_str(), paper, measured,
                ok ? "yes" : "NO");
    failed_ |= !ok;
    rows_.push_back(Row{what, paper, measured, tol, ok, /*checked=*/true});
  }

  /// Gate form of row(): pass iff `measured <= limit` (the common "must
  /// stay under budget" shape — latency ceilings, overhead budgets).
  void gate_max(const std::string& what, double measured, double limit) {
    row(what, limit / 2, measured, limit / 2);
  }

  /// Informational row without a pass/fail band.
  void info(const std::string& what, double measured) {
    std::printf("%-58s %12s %12.3f\n", what.c_str(), "-", measured);
    rows_.push_back(Row{what, 0.0, measured, 0.0, true, /*checked=*/false});
  }

  /// Exit code for main(): 0 iff every row was within tolerance.
  int exit_code() const { return failed_ ? 1 : 0; }

  /// Write the pathview-bench-v2 report. The file goes to
  /// $PATHVIEW_BENCH_JSON (a directory) when set, else the working dir.
  void write_json(const std::string& filename) const {
    std::string path = filename;
    if (const char* dir = std::getenv("PATHVIEW_BENCH_JSON"); dir && *dir)
      path = std::string(dir) + "/" + filename;

    const auto opt_str = [](const std::string& s) {
      return s.empty() ? std::string("null") : "\"" + escape(s) + "\"";
    };
    std::string out = "{\n  \"schema\": \"pathview-bench-v2\",\n";
    out += "  \"name\": " + opt_str(meta_.name) + ",\n";
    out += "  \"title\": \"" + escape(title_) + "\",\n";
    out += "  \"timestamp\": " + opt_str(meta_.timestamp) + ",\n";
    out += "  \"git_rev\": " + opt_str(meta_.git_rev) + ",\n";
    out += "  \"config\": {";
    for (std::size_t i = 0; i < config_.size(); ++i) {
      out += i ? ",\n    " : "\n    ";
      out += "\"" + escape(config_[i].first) + "\": " + config_[i].second;
    }
    out += config_.empty() ? "},\n" : "\n  },\n";
    out += "  \"passed\": " + std::string(failed_ ? "false" : "true") + ",\n";
    out += "  \"metrics\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      out += i ? ",\n    " : "\n    ";
      out += "{\"name\": \"" + escape(r.what) + "\", \"value\": " +
             num(r.measured);
      if (r.checked)
        out += ", \"paper\": " + num(r.paper) + ", \"tol\": " + num(r.tol) +
               ", \"ok\": " + (r.ok ? "true" : "false");
      out += "}";
    }
    out += "\n  ],\n  \"obs_counters\": {";
    const obs::TraceSnapshot snap = obs::snapshot();
    for (std::size_t i = 0; i < snap.counters.size(); ++i) {
      out += i ? ",\n    " : "\n    ";
      out += "\"" + escape(snap.counters[i].first) +
             "\": " + std::to_string(snap.counters[i].second);
    }
    out += "\n  }\n}\n";
    obs::write_text_file(path, out);
    std::printf("[wrote %s]\n", path.c_str());
  }

 private:
  struct Row {
    std::string what;
    double paper;
    double measured;
    double tol;
    bool ok;
    bool checked;
  };

  static std::string escape(const std::string& s) {
    return obs::json_escape(s);
  }

  static std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::string title_;
  Meta meta_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<Row> rows_;
  bool failed_ = false;
};

}  // namespace pathview::bench
