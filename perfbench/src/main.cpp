// perfbench: one benchmark program for the whole NSC -> BVRAM pipeline.
//
//   perfbench        --workload NAME --seed N --seconds S [--corrupt]
//   perfbench_traced --workload NAME --seed N --seconds S [--corrupt]
//
// Runs one workload (compile_cold, engine_bulk, serve_open, serve_burst),
// prints every metric by name with its unit, writes the full result (with
// provenance and inputs) to .bench_build/results/<workload>-seed<N>-
// trace<T>.json, and ends with one JSON line: {"correct", "attempted",
// "failed", "metrics"}.  perfbench reports the end-to-end metrics;
// perfbench_traced (T = 1) reports the per-layer ones and writes a Chrome
// trace to .bench_build/results/trace-<workload>-seed<N>.json.  --corrupt
// perturbs one checked output, which the checks must count (the
// benchmark's self-test).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "obs/benchjson.hpp"
#include "support/parallel.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using pb::Metric;
using pb::MetricDef;
using pb::Report;

/// The end-to-end metrics every workload reports (see README.md for what
/// each one measures on each workload).
const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s", "lower"},        {"peak_rss_mb", "MB", "lower"},
      {"op_ms", "ms", "lower"},         {"tail_ms", "ms", "lower"},
      {"throughput", "1/s", "higher"},  {"static_instrs", "count", "lower"},
      {"exec_T", "count", "lower"},     {"exec_W", "count", "lower"},
  };
  return defs;
}

/// Names the benchmark was specified with that are an end-to-end metric of
/// one workload, possibly rescaled.  They are printed, not recorded twice.
struct Alias {
  const char* workload;
  const char* name;
  const char* metric;
  double scale;
  const char* unit;
};
constexpr Alias kAliases[] = {
    {"engine_bulk", "bulk_melem_s", "throughput", 1e-6, "Melem/s"},
    {"serve_open", "serve_p50_ms", "op_ms", 1, "ms"},
    {"serve_open", "serve_p99_ms", "tail_ms", 1, "ms"},
    {"serve_burst", "serve_rps", "throughput", 1, "1/s"},
};

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print(const std::string& name, double value, const std::string& unit,
           const std::string& note) {
  std::cout << "  " << name << " = " << num(value) << " " << unit
            << (note.empty() ? "" : "  [" + note + "]") << "\n";
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload compile_cold|engine_bulk|"
               "serve_open|serve_burst --seed N --seconds S [--corrupt]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = pb::Clock::now();
  pb::Options opt;
  opt.trace = pb::trace::traced_binary;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--corrupt") {
        opt.corrupt = true;
      } else {
        usage("unknown argument " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a);
    }
  }
  if (!have_seed || !have_seconds || opt.seconds <= 0) {
    usage("--seed and --seconds are required");
  }
  if (opt.trace) pb::trace::enable();

  Report r;
  try {
    if (opt.workload == "compile_cold") {
      r = pb::run_compile_cold(opt);
    } else if (opt.workload == "engine_bulk") {
      r = pb::run_engine_bulk(opt);
    } else if (opt.workload == "serve_open") {
      r = pb::run_serve_open(opt);
    } else if (opt.workload == "serve_burst") {
      r = pb::run_serve_burst(opt);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  if (!r.end_to_end.count("peak_rss_mb")) {
    r.e2e("peak_rss_mb", pb::peak_rss_mb(), "MB", "ru_maxrss");
  }

  // -- human-readable report -------------------------------------------------
  std::cout << "perfbench " << opt.workload << " seed " << opt.seed << " trace "
            << opt.trace << " (" << PERFBENCH_BUILD_TYPE << ")\n";
  print("fail_ratio",
        r.attempted == 0 ? 1.0
                         : static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted),
        "ratio", std::to_string(r.failed) + " of " + std::to_string(r.attempted));
  for (const Metric& m : r.extra) print(m.name, m.value, m.unit, m.note);
  for (const Alias& a : kAliases) {
    if (opt.workload != a.workload) continue;
    print(a.name, r.end_to_end[a.metric].value * a.scale, a.unit,
          std::string("= ") + a.metric);
  }
  std::cout << " end-to-end:\n";
  for (const auto& d : end_to_end_defs()) {
    const Metric& m = r.end_to_end[d.name];
    print(d.name, m.value, d.unit, m.note);
  }
  for (const std::string& f : r.failures) std::cout << "  FAILED: " << f << "\n";

  std::map<std::string, double> layers;
  if (opt.trace) {
    const auto& defs = pb::trace::per_layer_defs();
    for (const auto& [name, v] : r.layer) {
      if (std::none_of(defs.begin(), defs.end(),
                       [&](const MetricDef& d) { return d.name == name; })) {
        std::cerr << "perfbench: per-layer metric " << name
                  << " is not in the per-layer list\n";
        return 1;
      }
    }
    std::cout << " per-layer (mean per call of the layer's entry point):\n";
    for (const auto& d : defs) {
      const auto it = r.layer.find(d.name);
      layers[d.name] = it == r.layer.end() ? 0.0 : it->second;
      print(d.name, layers[d.name], d.unit, "");
    }
    std::cout << " layer self time (ms, whole process):\n";
    for (const auto& [layer, ms] : pb::trace::layer_self_ms()) {
      print(layer, ms, "ms", "");
    }
  }

  // -- result file ------------------------------------------------------------
  std::filesystem::create_directories(pb::kOutDir);
  const std::string stem = std::string(pb::kOutDir) + "/" + opt.workload +
                           "-seed" + std::to_string(opt.seed);
  {
    nsc::obs::BenchReport report(
        stem + "-trace" + std::to_string(opt.trace ? 1 : 0) + ".json",
        "nscc-perfbench/v2");
    if (!report.ok()) return 1;
    std::ostringstream out;
    const auto members = [&](const std::string& key, auto&& each) {
      out << ",\n  " << pb::json_str(key) << ": {";
      each([&, first = true](const std::string& k, const std::string& v) mutable {
        out << (first ? "" : ", ") << pb::json_str(k) << ": " << v;
        first = false;
      });
      out << "}";
    };
    out << "  \"workload\": " << pb::json_str(opt.workload)
        << ",\n  \"seed\": " << opt.seed << ",\n  \"holdout_seed\": 1994"
        << ",\n  \"seconds\": " << num(opt.seconds)
        << ",\n  \"trace\": " << (opt.trace ? 1 : 0)
        << ",\n  \"build_type\": " << pb::json_str(PERFBENCH_BUILD_TYPE)
        << ",\n  \"pool_workers\": " << nsc::parallel_workers()
        << ",\n  \"wall_s\": "
        << num(pb::ms_between(process_start, pb::Clock::now()) / 1e3)
        << ",\n  \"attempted\": " << r.attempted
        << ",\n  \"failed\": " << r.failed << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      out << (i ? ", " : "") << pb::json_str(r.failures[i]);
    }
    out << "]";
    members("inputs", [&](auto emit) {
      for (const auto& [k, v] : r.inputs) emit(k, v);
    });
    members("end_to_end", [&](auto emit) {
      for (const auto& d : end_to_end_defs()) {
        emit(d.name, num(r.end_to_end[d.name].value));
      }
    });
    members("extra", [&](auto emit) {
      for (const Metric& m : r.extra) {
        emit(m.name, "{\"value\": " + num(m.value) + ", \"unit\": " +
                         pb::json_str(m.unit) + ", \"note\": " +
                         pb::json_str(m.note) + "}");
      }
    });
    members("per_layer", [&](auto emit) {
      for (const auto& [name, v] : layers) emit(name, num(v));
    });
    std::fprintf(report.out(), "%s\n", out.str().c_str());
  }
  if (opt.trace) pb::trace::write_chrome(stem + "-chrome.json");

  // -- the result line ----------------------------------------------------------
  std::ostringstream line;
  line << "{\"correct\": " << (r.failed == 0 && r.attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
       << ", \"metrics\": {";
  bool first = true;
  for (const auto& d :
       opt.trace ? pb::trace::per_layer_defs() : end_to_end_defs()) {
    const double v = opt.trace ? layers[d.name] : r.end_to_end[d.name].value;
    line << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": " << num(v)
         << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  line << "}}";
  std::cout << line.str() << std::endl;
  return 0;
}
