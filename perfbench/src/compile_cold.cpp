// compile_cold: the compile-heavy, engine-free workload.
//
// One operation is what a cold `Service::load` pays before it can cache an
// artifact: parse and resolve the source, then serve::compile_program (the
// unit program and the lifted batch program, O2).  Every pass compiles all
// 12 benchmark programs once, in a seeded order, so each program contributes
// equally to the percentiles whatever the run length.  Between operations
// (untimed) each artifact is checked against the evaluator on the file's
// `input` lines: the unit program per line, the batch program on all lines
// at once (it traps iff some line traps).
#include <algorithm>
#include <array>
#include <numeric>

#include "front/front.hpp"
#include "sa/compile.hpp"
#include "serve/cache.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace F = nsc::front;
using nsc::Value;

struct Reference {
  std::vector<Outcome> lines;  ///< per input line
  Outcome batch;               ///< the lines as one batch
};

Reference reference_for(const Program& p) {
  Reference ref;
  std::vector<ValueRef> values;
  bool trapped = false;
  for (const auto& in : p.inputs) {
    ref.lines.push_back(evaluate(p.main.fn, in));
    trapped = trapped || ref.lines.back().trapped;
    values.push_back(ref.lines.back().value);
  }
  ref.batch.trapped = trapped;
  if (!trapped) ref.batch.value = Value::seq(values);
  return ref;
}

Outcome run_outcome(const nsc::bvram::Program& prog, const nsc::TypeRef& dom,
                    const nsc::TypeRef& cod, const ValueRef& arg,
                    nsc::Cost* cost) {
  Outcome o;
  try {
    const auto out = nsc::sa::run_compiled(prog, dom, cod, arg);
    o.value = out.value;
    if (cost != nullptr) *cost = out.cost;
  } catch (const nsc::EvalError&) {
    o.trapped = true;
  }
  return o;
}

}  // namespace

Report run_compile_cold(const Options& opt) {
  Report r;
  struct Setup {
    std::vector<Program> programs;
  };
  // Set-up is a few milliseconds here, so take the median of more of them.
  const Setup st = timed_setup<Setup>(r, 9, [] {
    Setup s;
    s.programs = load_programs();
    return s;
  });
  const auto& corpus = st.programs;
  const std::size_t n = corpus.size();
  std::vector<Reference> refs(n);  // filled on first use, outside timing
  std::vector<bool> have_ref(n, false);

  // Per program: (unit, batch) instruction counts and executed T/W of the
  // unit program over the input lines, fixed by the first compile.
  std::vector<std::array<double, 4>> first(n, {-1, -1, -1, -1});
  std::vector<double> samples;
  std::vector<std::vector<double>> per_program(n);

  SplitMix64 rng = stream(opt.seed, "compile_cold.order");
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  std::size_t passes = 0;
  while (passes == 0 || Clock::now() < deadline) {
    for (std::size_t i = n - 1; i > 0; --i) {
      std::swap(order[i], order[rng.below(i + 1)]);
    }
    for (const std::size_t idx : order) {
      const Program& p = corpus[idx];
      std::shared_ptr<const nsc::serve::CompiledProgram> art;
      F::ResolvedFn fn;
      const auto t0 = Clock::now();
      {
        trace::Scope span("bench.compile");
        const F::SourceFile src(p.name, p.source);
        const F::ResolvedModule mod = F::resolve(F::parse_module(src), src);
        fn = mod.main();
        nsc::serve::CacheKey key;
        key.source_hash = nsc::serve::hash_source(p.source, fn.name);
        art = nsc::serve::compile_program(p.name + ":" + fn.name, fn.fn,
                                          fn.dom, fn.cod, key);
      }
      const double ms = ms_between(t0, Clock::now());
      samples.push_back(ms);
      per_program[idx].push_back(ms);
      ++r.attempted;

      // -- check (untimed) --------------------------------------------------
      if (!have_ref[idx]) {
        refs[idx] = reference_for(p);
        have_ref[idx] = true;
      }
      bool ok = true;
      nsc::Cost total{};
      for (std::size_t k = 0; k < p.inputs.size(); ++k) {
        nsc::Cost c{};
        const Outcome got = maybe_corrupt(
            opt, run_outcome(art->unit, fn.dom, fn.cod, p.inputs[k], &c));
        ok = ok && same(refs[idx].lines[k], got);
        total.time += c.time;
        total.work += c.work;
      }
      const Outcome batch =
          run_outcome(art->batch, nsc::Type::seq(fn.dom), nsc::Type::seq(fn.cod),
                      Value::seq(p.inputs), nullptr);
      ok = ok && same(refs[idx].batch, batch);
      const std::array<double, 4> now = {
          static_cast<double>(art->unit.code.size()),
          static_cast<double>(art->batch.code.size()),
          static_cast<double>(total.time), static_cast<double>(total.work)};
      if (first[idx][0] < 0) first[idx] = now;
      if (now != first[idx]) {
        r.fail(p.name + ": instruction counts or T/W changed between compiles");
      } else if (!ok) {
        r.fail(p.name + ": compiled output differs from the evaluator");
      }
    }
    ++passes;
  }

  std::vector<double> instrs, time, work;
  for (const auto& f : first) {
    instrs.push_back(f[0]);
    instrs.push_back(f[1]);
    time.push_back(std::max(f[2], 1.0));
    work.push_back(std::max(f[3], 1.0));
  }
  double busy_ms = 0;
  for (const double s : samples) busy_ms += s;
  const std::string count = std::to_string(samples.size()) + " compiles, " +
                            std::to_string(passes) + " passes";
  const double p50 = quantile(samples, 0.5), p90 = quantile(samples, 0.9);
  std::vector<double> typical;
  for (const auto& v : per_program) typical.push_back(median(v));
  r.e2e("op_ms", geomean(typical), "ms",
        "geomean over programs of the median of " + count);
  r.e2e("tail_ms", *std::max_element(typical.begin(), typical.end()), "ms",
        "the slowest program's median compile, of " + count);
  r.e2e("throughput", 1e3 * static_cast<double>(samples.size()) / busy_ms,
        "1/s", "compiles per second");
  r.e2e("static_instrs", geomean(instrs), "count",
        "geomean over 12 unit + 12 batch programs, O2");
  r.e2e("exec_T", geomean(time), "count",
        "geomean over programs of T summed over the input lines");
  r.e2e("exec_W", geomean(work), "count",
        "geomean over programs of W summed over the input lines");
  r.add("compile_ms_p50", p50, "ms", count);
  r.add("compile_ms_p90", p90, "ms", count);
  for (std::size_t i = 0; i < n; ++i) {
    r.add("compile_ms." + corpus[i].name, median(per_program[i]), "ms",
           "median");
  }
  r.inputs.emplace_back("programs", std::to_string(n));
  r.inputs.emplace_back("passes", std::to_string(passes));
  r.inputs.emplace_back("opt_level", "\"O2\"");
  r.inputs.emplace_back("threads", "1");
  if (trace::on()) r.layer = trace::layer_metrics();
  return r;
}

}  // namespace pb
