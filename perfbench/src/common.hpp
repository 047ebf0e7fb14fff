// Shared pieces of the whole-pipeline benchmark: options, the programs, the
// seeded input generators, the evaluator reference, statistics, and the
// report every workload fills in.
//
// Each workload is one function `Report run_<name>(const Options&)`.  It
// sets up (timed several times, median reported as setup_s), measures for
// Options::seconds, and checks every output against the NSC evaluator
// outside every timed region.  main.cpp prints the report.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "front/front.hpp"
#include "object/value.hpp"
#include "support/prng.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;
using nsc::SplitMix64;
using nsc::ValueRef;

double ms_between(Clock::time_point a, Clock::time_point b);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// True in the traced program (perfbench_traced), false otherwise.
  bool trace = false;
  /// Self-test: perturb one checked output so the check must count it.
  bool corrupt = false;
};

/// Where result files and Chrome traces go, relative to the checkout root.
inline constexpr const char* kOutDir = ".bench_build/results";

/// A sub-stream of the run's one seeded generator: the same (seed, purpose)
/// always yields the same sequence, so a repeated set-up regenerates
/// identical inputs and the streams of different purposes never overlap.
SplitMix64 stream(std::uint64_t seed, const std::string& purpose);

// -- programs ---------------------------------------------------------------

/// One benchmark program: perfbench/programs/<name>.nsc, a frozen copy of
/// the tests/corpus program of the same name, with everything the workloads
/// need to know about it.  This table is the only per-program list.
struct ProgramSpec {
  const char* name;
  /// A seeded argument whose size grows with `n`.  With `may_trap`, a
  /// trap_division argument has an empty segment (division by zero, the
  /// paper's Omega) with probability kTrapShare; no other generated
  /// argument traps.
  ValueRef (*make)(std::size_t n, SplitMix64& rng, bool may_trap);
  /// `n` is the side of a nested argument rather than an element count.
  bool nested;
  /// engine_bulk's input size, and the reduced size for its evaluator check.
  std::size_t bulk_n, reduced_n;
};

/// The share of generated trap_division queries that trap.
inline constexpr double kTrapShare = 0.125;

const std::vector<ProgramSpec>& program_specs();

struct Program {
  const ProgramSpec* spec = nullptr;
  std::string name;    ///< spec->name
  std::string source;  ///< the file's text
  nsc::front::ResolvedFn main;
  std::vector<ValueRef> inputs;  ///< the file's `input` lines, evaluated
};

/// Read and resolve every program of program_specs(), in table order.
/// Throws when a file is missing (e.g. outside a checkout of the repository).
std::vector<Program> load_programs();

// -- reference --------------------------------------------------------------

/// A program's observable result: a value or a trap.  Traps compare by
/// kind only; the evaluator and the machine word their messages differently.
struct Outcome {
  bool trapped = false;
  ValueRef value;
};

Outcome evaluate(const nsc::lang::FuncRef& fn, const ValueRef& arg);
bool same(const Outcome& want, const Outcome& got);

// -- statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double geomean(const std::vector<double>& v);

// -- report -----------------------------------------------------------------

/// A metric's name, unit and direction, as listed in BENCHMARK.json.
struct MetricDef {
  std::string name, unit, better;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< e.g. "p90 of 120 samples"
};

/// What a workload hands back to main.
struct Report {
  std::uint64_t attempted = 0;
  /// Wrong outputs + rejected + errors + fuel-exhausted.  A trap that
  /// matches the evaluator is correct.
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few diagnostics

  /// The end-to-end metrics every workload reports (BENCHMARK.json).
  std::map<std::string, Metric> end_to_end;
  /// Figures that are not end-to-end metrics (compile_ms_p90, per-program
  /// times, ...), printed and written to the result file.
  std::vector<Metric> extra;
  /// Per-layer values a workload measures itself (serve.*, speedups);
  /// the rest come from the trace.
  std::map<std::string, double> layer;
  /// Inputs and settings, as JSON members ("key": value).
  std::vector<std::pair<std::string, std::string>> inputs;

  void fail(const std::string& why);
  void e2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "");
};

/// Runs `make` `times` times, keeps the last state, and records the median
/// duration as setup_s.  Every repetition starts from nothing: the previous
/// state is destroyed before the next is built.
template <class State>
State timed_setup(Report& r, int times, const std::function<State()>& make) {
  std::vector<double> secs;
  std::optional<State> s;
  for (int i = 0; i < times; ++i) {
    s.reset();
    const auto t0 = Clock::now();
    s.emplace(make());
    secs.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  r.e2e("setup_s", median(secs), "s",
        "median of " + std::to_string(times) + " set-ups");
  return std::move(*s);
}

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// The corrupt-mode hook: on the first call (only), returns a value that
/// differs from `v`; afterwards returns `v`.  Identity when !opt.corrupt.
Outcome maybe_corrupt(const Options& opt, Outcome got);

/// `s` as a JSON string literal.
std::string json_str(const std::string& s);

}  // namespace pb
