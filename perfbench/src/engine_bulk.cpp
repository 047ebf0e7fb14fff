// engine_bulk: the engine-heavy, compile-free workload.
//
// Set-up compiles every benchmark program (unit program, O2) and encodes
// one large seeded input per program, of the size ProgramSpec::bulk_n.  One operation is one bvram::run on the pre-encoded input.
// Every pass runs each program once on the serial engine and once with
// RunConfig::parallel_backend (which of the two goes first alternates by
// pass).  Checks: the parallel outputs and T/W must equal the serial ones
// bit for bit, on every pair; after the timed phase both backends must
// equal the evaluator on a reduced input from the same generator.
#include <algorithm>
#include <array>
#include <numeric>

#include "front/front.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace B = nsc::bvram;

struct Bulk {
  const ProgramSpec* spec = nullptr;
  std::string name;
  nsc::front::ResolvedFn fn;
  B::Program program;
  std::vector<std::vector<std::uint64_t>> input;
  std::size_t words = 0;
};

Outcome run_value(const Bulk& b, const ValueRef& arg, bool parallel) {
  Outcome o;
  B::RunConfig cfg;
  cfg.parallel_backend = parallel;
  try {
    const auto regs = nsc::sa::encode_value(arg, b.fn.dom);
    const auto res = B::run(b.program, regs, cfg);
    o.value = nsc::sa::decode_value(b.fn.cod, res.outputs);
  } catch (const nsc::EvalError&) {
    o.trapped = true;
  }
  return o;
}

}  // namespace

Report run_engine_bulk(const Options& opt) {
  Report r;
  const std::vector<Bulk> bulk =
      timed_setup<std::vector<Bulk>>(r, 5, [&] {
        std::vector<Bulk> out;
        for (auto& p : load_programs()) {
          Bulk b;
          b.spec = p.spec;
          b.name = p.name;
          b.fn = p.main;
          {
            trace::Scope span("bench.compile");
            b.program = nsc::sa::compile_nsc(p.main.fn);
          }
          SplitMix64 rng = stream(opt.seed, "engine_bulk." + p.name);
          const ValueRef arg = p.spec->make(p.spec->bulk_n, rng, false);
          b.input = nsc::sa::encode_value(arg, p.main.dom);
          for (const auto& reg : b.input) b.words += reg.size();
          out.push_back(std::move(b));
        }
        return out;
      });
  const std::size_t n = bulk.size();

  std::vector<std::vector<double>> serial_ms(n), par_ms(n);
  std::vector<double> all_serial;
  std::vector<std::array<std::uint64_t, 2>> cost(n, {0, 0});
  std::vector<bool> costed(n, false);
  SplitMix64 rng = stream(opt.seed, "engine_bulk.order");
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
      const Bulk& b = bulk[idx];
      B::RunResult res[2];  // [0] serial, [1] parallel
      for (int k = 0; k < 2; ++k) {
        const bool parallel = (k == 1) != (passes % 2 == 1);
        B::RunConfig cfg;
        cfg.parallel_backend = parallel;
        const auto t0 = Clock::now();
        {
          trace::Scope span("bench.bulk_run");
          res[parallel ? 1 : 0] = B::run(b.program, b.input, cfg);
        }
        const double ms = ms_between(t0, Clock::now());
        (parallel ? par_ms : serial_ms)[idx].push_back(ms);
        if (!parallel) all_serial.push_back(ms);
        r.attempted += 1;
      }
      // -- check (untimed): parallel == serial, and T/W never change --------
      if (opt.corrupt && passes == 0 && idx == order.front()) {
        res[1].outputs.front().push_back(1);
      }
      const std::array<std::uint64_t, 2> tw = {res[0].cost.time,
                                               res[0].cost.work};
      if (!costed[idx]) {
        cost[idx] = tw;
        costed[idx] = true;
      }
      if (res[0].outputs != res[1].outputs ||
          res[0].cost.time != res[1].cost.time ||
          res[0].cost.work != res[1].cost.work) {
        r.fail(b.name + ": parallel run differs from serial");
      } else if (tw != cost[idx]) {
        r.fail(b.name + ": T/W changed between runs");
      }
    }
    ++passes;
  }
  if (trace::on()) r.layer = trace::layer_metrics();

  // -- evaluator check at reduced size (untimed) ----------------------------
  std::size_t reduced_checks = 0;
  for (const Bulk& b : bulk) {
    SplitMix64 small = stream(opt.seed, "engine_bulk.reduced." + b.name);
    const ValueRef arg = b.spec->make(b.spec->reduced_n, small, false);
    const Outcome want = evaluate(b.fn.fn, arg);
    for (const bool parallel : {false, true}) {
      ++reduced_checks;
      if (!same(want, run_value(b, arg, parallel))) {
        r.fail(b.name + ": reduced-size run differs from the evaluator");
      }
    }
  }

  std::vector<double> typical, rate, par_rate, time, work;
  for (std::size_t i = 0; i < n; ++i) {
    const double words = static_cast<double>(bulk[i].words);
    const double s = median(serial_ms[i]), p = median(par_ms[i]);
    typical.push_back(s);
    rate.push_back(words / (s / 1e3));
    par_rate.push_back(words / (p / 1e3));
    time.push_back(static_cast<double>(cost[i][0]));
    work.push_back(static_cast<double>(cost[i][1]));
    r.layer["support.parallel.speedup." + bulk[i].name] = s / p;
    r.add("run_ms." + bulk[i].name, s, "ms",
           "serial median; parallel " + std::to_string(p) + " ms");
  }
  const std::string count = std::to_string(all_serial.size()) +
                            " serial runs, " + std::to_string(passes) +
                            " passes";
  r.e2e("op_ms", geomean(typical), "ms",
        "serial run, geomean over programs of the median of " + count);
  r.e2e("tail_ms", quantile(all_serial, 0.9), "ms", "serial run p90 of " + count);
  r.e2e("throughput", geomean(rate), "1/s",
        "encoded input words per second, serial, geomean over programs");
  std::vector<double> instrs;
  for (const Bulk& b : bulk) {
    instrs.push_back(static_cast<double>(b.program.code.size()));
  }
  r.e2e("static_instrs", geomean(instrs), "count",
        "geomean over the 12 unit programs, O2");
  r.e2e("exec_T", geomean(time), "count", "geomean over programs, full size");
  r.e2e("exec_W", geomean(work), "count", "geomean over programs, full size");
  r.add("bulk_par_melem_s", geomean(par_rate) / 1e6, "Melem/s",
        "parallel_backend, geomean");

  std::string sizes = "{";
  for (std::size_t i = 0; i < n; ++i) {
    sizes += (i ? ", " : "") + json_str(bulk[i].name) + ": {\"n\": " +
             std::to_string(bulk[i].spec->bulk_n) +
             ", \"words\": " + std::to_string(bulk[i].words) +
             ", \"reduced_n\": " + std::to_string(bulk[i].spec->reduced_n) +
             "}";
  }
  r.inputs.emplace_back("input_sizes", sizes + "}");
  r.inputs.emplace_back("passes", std::to_string(passes));
  r.inputs.emplace_back("reduced_checks", std::to_string(reduced_checks));
  r.inputs.emplace_back("threads",
                        "\"1 caller + the support/parallel pool\"");
  return r;
}

}  // namespace pb
