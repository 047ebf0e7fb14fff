#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "nsc/eval.hpp"
#include "obs/benchjson.hpp"
#include "support/error.hpp"

namespace pb {

namespace F = nsc::front;
using nsc::Value;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

SplitMix64 stream(std::uint64_t seed, const std::string& purpose) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a of the purpose
  for (const char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  SplitMix64 mix(seed ^ h);
  return SplitMix64(mix.next());
}

// -- inputs -----------------------------------------------------------------

namespace {

std::vector<std::uint64_t> draws(SplitMix64& rng, std::size_t n,
                                 std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.between(lo, hi);
  return v;
}

std::vector<std::uint64_t> sorted_draws(SplitMix64& rng, std::size_t n,
                                        std::uint64_t hi) {
  auto v = draws(rng, n, 0, hi);
  std::sort(v.begin(), v.end());
  return v;
}

/// n segments of 1..2n elements (mean ~n, total ~n^2); with `empty_share`,
/// each segment is empty with that probability.
std::vector<ValueRef> segment_list(SplitMix64& rng, std::size_t n,
                                   std::uint64_t lo, std::uint64_t hi,
                                   double empty_share) {
  std::vector<ValueRef> segs;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len =
        empty_share > 0 && rng.coin(empty_share) ? 0 : rng.between(1, 2 * n);
    segs.push_back(Value::nat_seq(draws(rng, len, lo, hi)));
  }
  return segs;
}

ValueRef pairs(SplitMix64& rng, std::size_t n, std::uint64_t keys) {
  std::vector<ValueRef> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(Value::pair(Value::nat(rng.below(keys)),
                            Value::nat(rng.below(1000))));
  }
  return Value::seq(std::move(v));
}

ValueRef text(SplitMix64& rng, std::size_t n) {
  // Decimal tokens of 1..6 digits separated by runs of 1..2 spaces.
  std::vector<std::uint64_t> s;
  while (s.size() < n) {
    const std::size_t digits = rng.between(1, 6);
    for (std::size_t i = 0; i < digits; ++i) s.push_back(rng.between(48, 57));
    const std::size_t spaces = rng.between(1, 2);
    for (std::size_t i = 0; i < spaces; ++i) s.push_back(32);
  }
  s.resize(n);
  return Value::nat_seq(s);
}

ValueRef flat(SplitMix64& rng, std::size_t n, std::uint64_t lo,
              std::uint64_t hi) {
  return Value::nat_seq(draws(rng, n, lo, hi));
}

// Sizes: engine_bulk's full sizes make a serial run of each program take a
// comparable time (about 30 ms on a 4-core x86 host), so no straggler
// dominates; merge_sorted and nested_join do quadratic work in n.
const std::vector<ProgramSpec> kSpecs = {
    {"countdown", [](std::size_t n, SplitMix64& rng, bool) {
       return flat(rng, n, 0, 31);
     }, false, 17000, 1700},
    {"divide_conquer", [](std::size_t n, SplitMix64& rng, bool) {
       return flat(rng, n, 0, 999);
     }, false, 1000000, 100000},
    {"histogram", [](std::size_t n, SplitMix64& rng, bool) {
       std::vector<std::uint64_t> edges{0};
       for (std::uint64_t e : sorted_draws(rng, 7, 999)) edges.push_back(e + 1);
       std::sort(edges.begin(), edges.end());
       ValueRef xs = flat(rng, n, 0, 999);
       return Value::pair(std::move(xs), Value::nat_seq(edges));
     }, false, 2800, 280},
    {"merge_sorted", [](std::size_t n, SplitMix64& rng, bool) {
       ValueRef a = Value::nat_seq(sorted_draws(rng, n, 4 * n));
       return Value::pair(std::move(a),
                          Value::nat_seq(sorted_draws(rng, n, 4 * n)));
     }, false, 310, 100},
    {"nested_join", [](std::size_t n, SplitMix64& rng, bool) {
       const std::uint64_t keys = std::max<std::size_t>(n / 2, 1);
       ValueRef r = pairs(rng, n, keys);
       return Value::pair(std::move(r), pairs(rng, n, keys));
     }, false, 500, 160},
    {"nested_query", [](std::size_t n, SplitMix64& rng, bool) {
       return Value::seq(segment_list(rng, n, 0, 99, 0.15));
     }, true, 270, 90},
    {"quickstart", [](std::size_t n, SplitMix64& rng, bool) {
       return flat(rng, n, 0, 19);
     }, false, 330000, 33000},
    {"segmented_filter_reduce", [](std::size_t n, SplitMix64& rng, bool) {
       ValueRef db = Value::seq(segment_list(rng, n, 0, 99, 0.15));
       return Value::pair(std::move(db), Value::nat(rng.between(20, 80)));
     }, true, 220, 70},
    {"sqrt_blocks", [](std::size_t n, SplitMix64& rng, bool) {
       return flat(rng, n, 0, 99999);
     }, false, 21000, 2100},
    {"stragglers", [](std::size_t n, SplitMix64& rng, bool) {
       return flat(rng, n, 1, 999);
     }, false, 2200, 220},
    {"tokenizer", [](std::size_t n, SplitMix64& rng, bool) {
       return text(rng, n);
     }, false, 26000, 2600},
    {"trap_division", [](std::size_t n, SplitMix64& rng, bool may_trap) {
       std::vector<ValueRef> segs = segment_list(rng, n, 0, 999, 0);
       if (may_trap && !segs.empty() && rng.coin(kTrapShare)) {
         segs[rng.below(segs.size())] =
             Value::nat_seq(std::vector<std::uint64_t>{});
       }
       return Value::seq(std::move(segs));
     }, true, 195, 65},
};

}  // namespace

const std::vector<ProgramSpec>& program_specs() { return kSpecs; }

std::vector<Program> load_programs() {
  std::vector<Program> out;
  for (const ProgramSpec& spec : kSpecs) {
    const std::string path =
        std::string("perfbench/programs/") + spec.name + ".nsc";
    std::ifstream in(path);
    if (!in) {
      throw std::runtime_error(path +
                               " not found: run from the root of a checkout");
    }
    std::stringstream ss;
    ss << in.rdbuf();
    Program p;
    p.spec = &spec;
    p.name = spec.name;
    p.source = ss.str();
    const F::SourceFile src(p.name, p.source);
    const F::ResolvedModule mod = F::resolve(F::parse_module(src), src);
    p.main = mod.main();
    for (const auto& line : mod.inputs) {
      p.inputs.push_back(nsc::lang::eval(line.term).value);
    }
    out.push_back(std::move(p));
  }
  return out;
}

// -- reference --------------------------------------------------------------

Outcome evaluate(const nsc::lang::FuncRef& fn, const ValueRef& arg) {
  Outcome o;
  try {
    o.value = nsc::lang::apply_fn(fn, arg).value;
  } catch (const nsc::EvalError&) {
    o.trapped = true;
  }
  return o;
}

bool same(const Outcome& want, const Outcome& got) {
  if (want.trapped || got.trapped) return want.trapped == got.trapped;
  return want.value != nullptr && got.value != nullptr &&
         Value::equal(want.value, got.value);
}

Outcome maybe_corrupt(const Options& opt, Outcome got) {
  static bool done = false;
  if (!opt.corrupt || done) return got;
  done = true;
  if (got.trapped) return Outcome{false, Value::nat(7)};
  return Outcome{false, Value::pair(Value::nat(0), got.value)};
}

// -- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

// -- report -----------------------------------------------------------------

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

void Report::e2e(const std::string& n, double value, const std::string& unit,
                 const std::string& note) {
  end_to_end[n] = Metric{n, value, unit, note};
}

void Report::add(const std::string& n, double value, const std::string& unit,
                 const std::string& note) {
  extra.push_back(Metric{n, value, unit, note});
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  out += nsc::obs::BenchReport::escape(s);
  out += '"';
  return out;
}

}  // namespace pb
