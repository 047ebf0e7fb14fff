// serve_open and serve_burst: the two service workloads.
//
// Requests go to the 12 benchmark programs: uniformly in serve_burst, and
// with a Zipf (s = 1) skew over the programs in table order in serve_open.
// No production traffic exists to take a mix from, so both mixes are
// modelling choices, not measurements.  Query arguments take their sizes
// from the program's own `input` lines, the repository's example queries:
// each query has the top-level size of one of them (1..16 elements, or 1..4
// segments) and fresh seeded values (a pool of 256 per program).  A share
// kTrapShare of the
// trap_division queries holds an empty segment and traps, which makes
// their batch fall back to per-request replay.  Every response is checked
// against the evaluator's result for its query, after the timed phase.
#include <algorithm>
#include <array>
#include <future>
#include <thread>

#include "sa/compile.hpp"
#include "serve/service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace S = nsc::serve;
using Handle = std::shared_ptr<const S::CompiledProgram>;

constexpr std::size_t kQueries = 256;

struct Query {
  ValueRef arg;
  Outcome want;  ///< the evaluator's result, filled outside every timer
};

struct Served {
  Program program;
  Handle handle;
  std::vector<Query> queries;
};

struct Setup {
  std::unique_ptr<nsc::obs::SpanLog> spans;  ///< traced run only
  std::uint64_t spans_origin = 0;
  std::unique_ptr<S::Service> service;
  std::vector<Served> programs;  ///< program_specs() order
};

/// The length of a sequence argument, or of a pair argument's first
/// component (histogram's values, merge_sorted's left run, ...).
std::size_t top_size(const ValueRef& v) {
  const ValueRef& s = v->is(nsc::ValueKind::Pair) ? v->first() : v;
  return s->is(nsc::ValueKind::Seq) ? s->elems().size() : 0;
}

/// Service, warm loads of every benchmark program, query pools.
Setup make_setup(const Options& opt, std::size_t workers,
                 std::size_t max_queue) {
  Setup s;
  S::ServeConfig cfg;
  cfg.workers = workers;
  cfg.max_queue = max_queue;
  if (trace::on()) {
    s.spans = std::make_unique<nsc::obs::SpanLog>(std::size_t{1} << 20);
    s.spans_origin = trace::now_ns() - s.spans->now_ns();
    cfg.spans = s.spans.get();
  }
  s.service = std::make_unique<S::Service>(cfg);
  for (auto& p : load_programs()) {
    Served sv;
    {
      trace::Scope span("serve.load");
      sv.handle = s.service->load(p.name, p.source);
    }
    std::vector<std::size_t> sizes;
    for (const auto& in : p.inputs) {
      if (top_size(in) > 0) sizes.push_back(top_size(in));
    }
    SplitMix64 rng = stream(opt.seed, "serve.queries." + p.name);
    for (std::size_t q = 0; q < kQueries; ++q) {
      const std::size_t n = sizes[rng.below(sizes.size())];
      sv.queries.push_back(Query{p.spec->make(n, rng, true), {}});
    }
    sv.program = std::move(p);
    s.programs.push_back(std::move(sv));
  }
  return s;
}

void fill_references(Setup& s) {
  for (auto& sv : s.programs) {
    for (auto& q : sv.queries) q.want = evaluate(sv.program.main.fn, q.arg);
  }
}

/// Program index for serve_burst: uniform over the programs.
std::size_t pick_uniform(const Setup& s, SplitMix64& rng) {
  return rng.below(s.programs.size());
}

/// Program index for serve_open: the i-th program in table order has
/// weight 1 / (i + 1).
std::size_t pick_zipf(const Setup& s, SplitMix64& rng) {
  double total = 0;
  for (std::size_t i = 0; i < s.programs.size(); ++i) total += 1.0 / (i + 1);
  double x = static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total;
  for (std::size_t i = 0; i < s.programs.size(); ++i) {
    x -= 1.0 / (i + 1);
    if (x < 0) return i;
  }
  return s.programs.size() - 1;
}

void check_response(const Options& opt, Report& r, const Served& sv,
                    const Query& q, const S::Response& resp) {
  Outcome got;
  switch (resp.outcome) {
    case S::Outcome::Ok:
      got.value = resp.value;
      break;
    case S::Outcome::Trap:
      got.trapped = true;
      break;
    default:  // rejected, error, fuel exhausted: always a failure
      r.fail(sv.program.name + ": " + S::outcome_name(resp.outcome) + " " +
             resp.error);
      return;
  }
  if (!same(q.want, maybe_corrupt(opt, got))) {
    r.fail(sv.program.name + ": response differs from the evaluator");
  }
}

/// Static instruction counts and per-query executed T/W (solo unit runs of
/// every non-trapping query), as geomeans over programs.
void cost_metrics(Report& r, const Setup& s) {
  std::vector<double> instrs, time, work;
  for (const auto& sv : s.programs) {
    instrs.push_back(static_cast<double>(sv.handle->unit.code.size()));
    instrs.push_back(static_cast<double>(sv.handle->batch.code.size()));
    double t = 0, w = 0, k = 0;
    for (const auto& q : sv.queries) {
      if (q.want.trapped) continue;
      const auto out = nsc::sa::run_compiled(sv.handle->unit, sv.handle->dom,
                                             sv.handle->cod, q.arg);
      t += static_cast<double>(out.cost.time);
      w += static_cast<double>(out.cost.work);
      ++k;
    }
    time.push_back(t / k);
    work.push_back(w / k);
  }
  r.e2e("static_instrs", geomean(instrs), "count",
        "geomean over 12 unit + 12 batch programs, O2");
  r.e2e("exec_T", geomean(time), "count",
        "geomean over programs of mean T per query, solo");
  r.e2e("exec_W", geomean(work), "count",
        "geomean over programs of mean W per query, solo");
}

/// serve.* per-layer values every service workload reports.
void service_layers(Report& r, Setup& s) {
  const S::ServeStats st = s.service->stats();
  const double lookups = static_cast<double>(st.cache.hits + st.cache.misses);
  r.layer["serve.batch_occupancy"] = st.batch_occupancy;
  r.layer["serve.replays"] =  // per completed request
      st.completed == 0 ? 0
                        : static_cast<double>(st.replays) /
                              static_cast<double>(st.completed);
  r.add("replays_per_request", r.layer["serve.replays"], "ratio",
        "solo re-runs after a trapping batch, per completed request");
  r.layer["serve.cache_hit_ratio"] =
      lookups == 0 ? 0 : static_cast<double>(st.cache.hits) / lookups;
  r.layer["serve.cache_evictions"] = static_cast<double>(st.cache.evictions);
  r.layer["serve.arena_created"] = static_cast<double>(st.arena.created);
  if (!s.spans) return;
  const auto spans = s.spans->drain();
  std::vector<double> wait, exec;
  double replay_ms = 0;
  for (const auto& sp : spans) {
    const double ms = static_cast<double>(sp.dur_ns) / 1e6;
    if (sp.phase == "queue-wait") wait.push_back(ms);
    if (sp.phase == "execute" || sp.phase == "replay") exec.push_back(ms);
    if (sp.phase == "replay") replay_ms += ms;
  }
  double w = 0, e = 0;
  for (const double x : wait) w += x;
  for (const double x : exec) e += x;
  r.layer["serve.queue_wait_ms"] = wait.empty() ? 0 : w / static_cast<double>(wait.size());
  r.layer["serve.exec_ms"] = exec.empty() ? 0 : e / static_cast<double>(exec.size());
  r.layer["serve.replay_share"] = e == 0 ? 0 : replay_ms / e;
  trace::add_service_spans(spans, s.spans_origin);
}

struct Interval {
  Clock::time_point a, b;
};

bool overlaps(const Interval& x, const std::vector<Interval>& ys) {
  for (const Interval& y : ys) {
    if (x.a < y.b && y.a < x.b) return true;
  }
  return false;
}

}  // namespace

// -- serve_open ---------------------------------------------------------------

Report run_serve_open(const Options& opt) {
  // One generator thread + one cold-load client + two service workers:
  // four threads on a four-core host.
  constexpr std::size_t kWorkers = 2;
  constexpr double kRate = 400;  // offered warm requests per second
  constexpr std::size_t kCold = 12;
  Report r;
  Setup s = timed_setup<Setup>(r, 3, [&] {
    return make_setup(opt, kWorkers, std::size_t{1} << 20);
  });
  fill_references(s);

  struct Warm {
    Clock::time_point due, submitted;
    Interval load;
    std::size_t program = 0, query = 0;
    std::future<S::Response> response;
  };
  struct Cold {
    Clock::time_point due, submitted;
    Interval load;
    std::size_t program = 0, query = 0;
    S::Response response;
  };
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kRate));
  const auto length = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(opt.seconds));
  const auto start = Clock::now() + std::chrono::milliseconds(20);

  // The cold client: one fresh variant of every program, in table
  // order, at evenly spaced due times.  A variant is the source plus a
  // unique comment: a new cache key, so load really compiles.  The order
  // is fixed rather than seeded so that every run stalls the same way
  // (a long compile delays the ones due after it).
  std::vector<Cold> cold(kCold);
  std::thread cold_client([&] {
    SplitMix64 rng = stream(opt.seed, "serve_open.cold");
    for (std::size_t j = 0; j < kCold; ++j) {
      Cold& c = cold[j];
      c.program = j % s.programs.size();
      c.query = rng.below(kQueries);
      c.due = start + length * (2 * j + 1) / (2 * kCold);
      std::this_thread::sleep_until(c.due);
      const Served& sv = s.programs[c.program];
      const std::string variant = sv.program.source + "\n-- variant " +
                                  std::to_string(opt.seed) + "." +
                                  std::to_string(j) + "\n";
      Handle h;
      c.load.a = Clock::now();
      {
        trace::Scope span("serve.load");
        h = s.service->load(sv.program.name + "#" + std::to_string(j), variant);
      }
      c.load.b = c.submitted = Clock::now();
      c.response = s.service->submit(h, sv.queries[c.query].arg).get();
    }
  });

  // The generator: warm requests at the offered rate.
  std::vector<Warm> warm;
  std::vector<double> late_ms;
  SplitMix64 rng = stream(opt.seed, "serve_open.requests");
  for (std::size_t i = 0;; ++i) {
    const auto due = start + period * static_cast<long>(i);
    if (due >= start + length) break;
    std::this_thread::sleep_until(due);
    const auto now = Clock::now();
    late_ms.push_back(ms_between(due, now));
    Warm w;
    w.due = due;
    w.program = pick_zipf(s, rng);
    w.query = rng.below(kQueries);
    const Served& sv = s.programs[w.program];
    trace::set_request(i + 1);
    Handle h;
    w.load.a = now;
    {
      trace::Scope span("serve.load");
      h = s.service->load(sv.program.name, sv.program.source);
    }
    w.load.b = w.submitted = Clock::now();
    if (h != sv.handle) r.fail(sv.program.name + ": warm load missed the cache");
    w.response = s.service->submit(h, sv.queries[w.query].arg);
    warm.push_back(std::move(w));
  }
  trace::set_request(0);
  cold_client.join();
  s.service->drain();
  const auto end = Clock::now();
  if (trace::on()) r.layer = trace::layer_metrics();

  // -- latencies and checks (untimed) ---------------------------------------
  std::vector<Interval> compiles;
  for (const Cold& c : cold) compiles.push_back(c.load);
  std::vector<double> latency, hit_us, blocked_ms;
  for (Warm& w : warm) {
    const S::Response resp = w.response.get();
    ++r.attempted;
    const Served& sv = s.programs[w.program];
    check_response(opt, r, sv, sv.queries[w.query], resp);
    latency.push_back(ms_between(w.due, w.submitted) +
                      static_cast<double>(resp.latency_ns) / 1e6);
    const double load_ms = ms_between(w.load.a, w.load.b);
    hit_us.push_back(load_ms * 1e3);
    if (overlaps(w.load, compiles)) blocked_ms.push_back(load_ms);
  }
  std::vector<double> cold_ms;
  for (const Cold& c : cold) {
    ++r.attempted;
    const Served& sv = s.programs[c.program];
    check_response(opt, r, sv, sv.queries[c.query], c.response);
    cold_ms.push_back(ms_between(c.due, c.submitted) +
                      static_cast<double>(c.response.latency_ns) / 1e6);
  }

  const std::string count = std::to_string(latency.size()) + " warm requests";
  const double p50 = quantile(latency, 0.5), p99 = quantile(latency, 0.99);
  r.e2e("op_ms", p50, "ms", "warm latency from due time, p50 of " + count);
  r.e2e("tail_ms", p99, "ms", "warm latency from due time, p99 of " + count);
  r.e2e("throughput",
        static_cast<double>(latency.size()) /
            (ms_between(start, end) / 1e3),
        "1/s", "warm responses per second at " + std::to_string(kRate) +
                   "/s offered");
  cost_metrics(r, s);
  r.add("serve_cold_ms", median(cold_ms), "ms",
         "median of " + std::to_string(cold_ms.size()) + " fresh variants");
  r.add("generator_late_ms_p99", quantile(late_ms, 0.99), "ms", count);
  r.add("generator_late_ms_max", quantile(late_ms, 1.0), "ms", count);
  r.add("hit_loads_overlapping_compiles",
         static_cast<double>(blocked_ms.size()), "count");

  double blocked = 0;
  for (const double x : blocked_ms) blocked += x;
  r.layer["serve.load_hit_us"] = median(hit_us);
  r.layer["serve.load_blocked_ms"] =
      blocked_ms.empty() ? 0 : blocked / static_cast<double>(blocked_ms.size());
  service_layers(r, s);

  r.inputs.emplace_back("offered_rate_per_s", std::to_string(kRate));
  r.inputs.emplace_back("service_workers", std::to_string(kWorkers));
  r.inputs.emplace_back("threads",
                        "\"1 generator + 1 cold client + 2 service workers\"");
  r.inputs.emplace_back("cold_loads", std::to_string(kCold));
  r.inputs.emplace_back("queries_per_program", std::to_string(kQueries));
  r.inputs.emplace_back("query_size", "\"2..12 elements or segments\"");
  return r;
}

// -- serve_burst --------------------------------------------------------------

Report run_serve_burst(const Options& opt) {
  // One service worker beside the submitting thread.  A burst then takes
  // the sum of its batch runs, so batching, split, arena and small-n kernel
  // changes show directly.  With three workers the burst also waited on
  // cross-thread wake-ups, which the shared reference host makes noisy:
  // in paired runs the p90 spread over seeds was 30%, against 6% with one.
  constexpr std::size_t kWorkers = 1;
  constexpr std::size_t kBurst = 1024;
  // peak_rss_mb is read after this many bursts, a fixed amount of work:
  // the arena of a bvram::run grows with every run (README.md, "Arena
  // growth"), so the peak at the end of the run would grow with speed.
  constexpr std::size_t kRssBursts = 100;
  Report r;
  Setup s = timed_setup<Setup>(r, 5, [&] {
    return make_setup(opt, kWorkers, kBurst);
  });
  fill_references(s);

  SplitMix64 rng = stream(opt.seed, "serve_burst.requests");
  std::vector<double> burst_ms;
  std::vector<std::pair<std::size_t, std::size_t>> plan(kBurst);
  std::vector<std::future<S::Response>> pending;
  std::vector<S::Response> responses(kBurst);
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds);
  while (burst_ms.empty() || Clock::now() < deadline) {
    for (auto& [program, query] : plan) {
      program = pick_uniform(s, rng);
      query = rng.below(kQueries);
    }
    pending.clear();
    s.service->pause();
    const auto t0 = Clock::now();
    {
      trace::Scope span("bench.burst");
      for (const auto& [program, query] : plan) {
        const Served& sv = s.programs[program];
        pending.push_back(s.service->submit(sv.handle, sv.queries[query].arg));
      }
      s.service->resume();
      // One wake-up when the whole burst is done, rather than one per
      // batch: the submitter then does not compete with the worker.
      s.service->drain();
      for (std::size_t i = 0; i < kBurst; ++i) responses[i] = pending[i].get();
    }
    burst_ms.push_back(ms_between(t0, Clock::now()));
    if (burst_ms.size() == kRssBursts) {
      r.e2e("peak_rss_mb", peak_rss_mb(), "MB",
            "ru_maxrss after " + std::to_string(kRssBursts) + " bursts");
    }
    // -- check (untimed) ----------------------------------------------------
    for (std::size_t i = 0; i < kBurst; ++i) {
      ++r.attempted;
      const Served& sv = s.programs[plan[i].first];
      check_response(opt, r, sv, sv.queries[plan[i].second], responses[i]);
    }
  }
  if (trace::on()) r.layer = trace::layer_metrics();

  const std::string count = std::to_string(burst_ms.size()) + " bursts of " +
                            std::to_string(kBurst);
  const double p50 = quantile(burst_ms, 0.5), p90 = quantile(burst_ms, 0.9);
  r.e2e("op_ms", p50, "ms", "burst completion p50 of " + count);
  r.e2e("tail_ms", p90, "ms", "burst completion p90 of " + count);
  r.e2e("throughput", static_cast<double>(kBurst) / (p50 / 1e3), "1/s",
        "requests per second at the median burst");
  cost_metrics(r, s);
  r.layer["serve.load_hit_us"] = 0;  // no per-request loads here
  r.layer["serve.load_blocked_ms"] = 0;
  service_layers(r, s);

  if (!r.end_to_end.count("peak_rss_mb")) {  // a run too short to get there
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB",
          "ru_maxrss after only " + std::to_string(burst_ms.size()) +
              " bursts");
  }
  r.add("peak_rss_mb_at_end", peak_rss_mb(), "MB",
        "ru_maxrss after all " + std::to_string(burst_ms.size()) + " bursts");
  r.inputs.emplace_back("burst_size", std::to_string(kBurst));
  r.inputs.emplace_back("service_workers", std::to_string(kWorkers));
  r.inputs.emplace_back("max_batch", "64");
  r.inputs.emplace_back("threads", "\"1 submitter + 1 service worker\"");
  r.inputs.emplace_back("queries_per_program", std::to_string(kQueries));
  return r;
}

}  // namespace pb
