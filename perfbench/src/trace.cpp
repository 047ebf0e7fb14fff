#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <unordered_map>

#include "common.hpp"

namespace pb::trace {

namespace {

struct Span {
  std::uint64_t id = 0, parent = 0, request = 0;
  const char* name = nullptr;
  std::uint32_t tid = 0;
  std::uint64_t t0 = 0, t1 = 0;
};

const char* const kPasses[] = {"copy-prop", "gvn",  "licm",
                               "peephole",  "dce",  "reg-compact"};
constexpr int kOps = 11;  // the vector opcodes: Move .. ScanPlus

/// The vector opcodes reported per layer.  load-empty is left out: no
/// O2-compiled benchmark program executes it, so it would read 0 always.
std::vector<nsc::bvram::Op> reported_ops() {
  std::vector<nsc::bvram::Op> ops;
  for (int op = 0; op < kOps; ++op) {
    const auto o = static_cast<nsc::bvram::Op>(op);
    if (o != nsc::bvram::Op::LoadEmpty) ops.push_back(o);
  }
  return ops;
}

struct PassAgg {
  double ns = 0, removed = 0;
};

struct State {
  std::mutex mu;
  std::vector<Span> spans;
  std::vector<nsc::obs::ServeSpan> service;
  std::uint64_t service_origin = 0;
  // nsa
  double nsa_nodes = 0;
  std::uint64_t nsa_calls = 0;
  // opt (per pipeline)
  std::uint64_t pipelines = 0;
  double instrs_before = 0, instrs_after = 0, rounds = 0, opt_ns = 0;
  std::map<std::string, PassAgg> passes;
  // bvram (per run)
  std::uint64_t runs = 0;
  double op_ns[kOps] = {}, op_bytes[kOps] = {};
  double pool_misses = 0, inplace_hits = 0, move_swaps = 0;
  double fused_groups = 0, fused_fallbacks = 0, fused_elided = 0;
  double par_kernels = 0, par_chunks = 0, par_serial = 0;
};

State& state() {
  static State s;
  return s;
}

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{0};
const auto g_origin = std::chrono::steady_clock::now();

thread_local std::vector<std::uint64_t> t_stack;
thread_local std::uint64_t t_request = 0;
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1);

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

bool is_compile_root(const char* name) {
  const std::string s(name);
  return s == "bench.compile" || s == "serve.load";
}

}  // namespace

void enable() { g_on.store(true); }
bool on() { return g_on.load(std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_origin)
          .count());
}

Scope::Scope(const char* name) {
  if (!on()) return;
  active_ = true;
  name_ = name;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_stack.empty() ? 0 : t_stack.back();
  t_stack.push_back(id_);
  t0_ = now_ns();
}

Scope::~Scope() {
  if (!active_) return;
  const std::uint64_t t1 = now_ns();
  t_stack.pop_back();
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.spans.push_back(Span{id_, parent_, t_request, name_, t_tid, t0_, t1});
}

void set_request(std::uint64_t id) { t_request = id; }

void note_nsa_nodes(std::size_t nodes) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.nsa_nodes += static_cast<double>(nodes);
  ++s.nsa_calls;
}

void note_pipeline(const nsc::opt::PipelineStats& st) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.pipelines;
  s.instrs_before += static_cast<double>(st.instrs_before);
  s.instrs_after += static_cast<double>(st.instrs_after);
  s.rounds += static_cast<double>(st.rounds);
  s.opt_ns += static_cast<double>(st.wall_ns);
  for (const auto& p : st.passes) {
    PassAgg& a = s.passes[p.name];
    a.ns += static_cast<double>(p.wall_ns);
    a.removed += static_cast<double>(p.instrs_removed);
  }
}

void note_run(const nsc::bvram::Program& program,
              const nsc::bvram::RunResult& r) {
  double ns[kOps] = {}, bytes[kOps] = {};
  for (std::size_t i = 0; i < r.profile.size() && i < program.code.size();
       ++i) {
    const int op = static_cast<int>(program.code[i].op);
    if (op >= kOps) continue;  // control flow
    ns[op] += static_cast<double>(r.profile[i].wall_ns);
    bytes[op] += static_cast<double>(r.profile[i].bytes);
  }
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  ++s.runs;
  for (int op = 0; op < kOps; ++op) {
    s.op_ns[op] += ns[op];
    s.op_bytes[op] += bytes[op];
  }
  const auto& e = r.engine;
  s.pool_misses += static_cast<double>(e.pool_misses);
  s.inplace_hits += static_cast<double>(e.inplace_hits);
  s.move_swaps += static_cast<double>(e.move_swaps);
  s.fused_groups += static_cast<double>(e.fused_groups);
  s.fused_fallbacks += static_cast<double>(e.fused_fallbacks);
  s.fused_elided += static_cast<double>(e.fused_elided);
  s.par_kernels += static_cast<double>(e.par_kernels);
  s.par_chunks += static_cast<double>(e.par_chunks);
  s.par_serial += static_cast<double>(e.par_serial);
}

void add_service_spans(const std::vector<nsc::obs::ServeSpan>& spans,
                       std::uint64_t origin_ns) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.service.insert(s.service.end(), spans.begin(), spans.end());
  s.service_origin = origin_ns;
}

namespace {

struct NameAgg {
  std::uint64_t n = 0;
  double self_ns = 0;
};

struct Derived {
  std::map<std::string, NameAgg> by_name;
  std::map<std::string, double> layer_self_ns;
  double root_ns = 0, root_covered_ns = 0;
};

Derived derive(const std::vector<Span>& spans) {
  Derived d;
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] += static_cast<double>(spans[i].t1 - spans[i].t0);
    const auto p = index.find(spans[i].parent);
    if (p != index.end()) {
      self[p->second] -= static_cast<double>(spans[i].t1 - spans[i].t0);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameAgg& a = d.by_name[spans[i].name];
    ++a.n;
    a.self_ns += self[i];
    const std::string layer = layer_of(spans[i].name);
    d.layer_self_ns[layer] += self[i];
    if (is_compile_root(spans[i].name)) {
      d.root_ns += static_cast<double>(spans[i].t1 - spans[i].t0);
      continue;
    }
    if (layer != "front" && layer != "nsa" && layer != "sa" && layer != "opt") {
      continue;
    }
    // Count this span's self time if it runs inside a compile root.
    for (auto p = index.find(spans[i].parent); p != index.end();
         p = index.find(spans[p->second].parent)) {
      if (is_compile_root(spans[p->second].name)) {
        d.root_covered_ns += self[i];
        break;
      }
    }
  }
  return d;
}

double mean(double total, std::uint64_t n) {
  return n == 0 ? 0 : total / static_cast<double>(n);
}

}  // namespace

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"front.parse_ms", "ms", "lower"},
        {"front.resolve_ms", "ms", "lower"},
        {"serve.load_hit_us", "us", "lower"},
        {"serve.load_blocked_ms", "ms", "lower"},
        {"nsa.from_nsc_ms", "ms", "lower"},
        {"nsa.nodes", "count", "lower"},
        {"sa.codegen_ms", "ms", "lower"},
        {"sa.instrs_emitted", "count", "lower"},
        {"opt.ms", "ms", "lower"},
        {"opt.rounds", "count", "lower"},
        {"opt.instrs_out", "count", "lower"},
    };
    for (const char* pass : kPasses) {
      d.push_back({std::string("opt.") + pass + ".ms", "ms", "lower"});
      d.push_back({std::string("opt.") + pass + ".removed", "count", "higher"});
    }
    d.push_back({"bvram.encode_ms", "ms", "lower"});
    d.push_back({"bvram.run_ms", "ms", "lower"});
    d.push_back({"bvram.decode_ms", "ms", "lower"});
    for (const auto op : reported_ops()) {
      const std::string base =
          std::string("bvram.op.") + nsc::bvram::op_name(op);
      d.push_back({base + ".ms", "ms", "lower"});
      d.push_back({base + ".bytes", "bytes", "lower"});
    }
    d.push_back({"bvram.pool_misses", "count", "lower"});
    d.push_back({"bvram.inplace_hits", "count", "higher"});
    d.push_back({"bvram.move_swaps", "count", "higher"});
    d.push_back({"bvram.fused_groups", "count", "higher"});
    d.push_back({"bvram.fused_fallbacks", "count", "lower"});
    d.push_back({"bvram.fused_elided", "count", "higher"});
    d.push_back({"support.parallel.kernels", "count", "higher"});
    d.push_back({"support.parallel.chunks", "count", "higher"});
    d.push_back({"support.parallel.serial_kernels", "count", "lower"});
    for (const ProgramSpec& p : program_specs()) {
      d.push_back({std::string("support.parallel.speedup.") + p.name, "ratio",
                   "higher"});
    }
    d.push_back({"serve.queue_wait_ms", "ms", "lower"});
    d.push_back({"serve.exec_ms", "ms", "lower"});
    d.push_back({"serve.batch_occupancy", "count", "higher"});
    d.push_back({"serve.replays", "ratio", "lower"});
    d.push_back({"serve.replay_share", "ratio", "lower"});
    d.push_back({"serve.cache_hit_ratio", "ratio", "higher"});
    d.push_back({"serve.cache_evictions", "count", "lower"});
    d.push_back({"serve.arena_created", "count", "lower"});
    d.push_back({"compile.layer_share", "ratio", "higher"});
    return d;
  }();
  return defs;
}

std::map<std::string, double> layer_metrics() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  const Derived d = derive(s.spans);
  const auto per_call_ms = [&](const char* name) {
    const auto it = d.by_name.find(name);
    return it == d.by_name.end() ? 0.0 : mean(it->second.self_ns, it->second.n) / 1e6;
  };
  std::map<std::string, double> m;
  m["front.parse_ms"] = per_call_ms("front.parse");
  m["front.resolve_ms"] = per_call_ms("front.resolve");
  m["nsa.from_nsc_ms"] = per_call_ms("nsa.from_nsc");
  m["nsa.nodes"] = mean(s.nsa_nodes, s.nsa_calls);
  m["sa.codegen_ms"] = per_call_ms("sa.compile");
  m["sa.instrs_emitted"] = mean(s.instrs_before, s.pipelines);
  m["opt.ms"] = mean(s.opt_ns, s.pipelines) / 1e6;
  m["opt.rounds"] = mean(s.rounds, s.pipelines);
  m["opt.instrs_out"] = mean(s.instrs_after, s.pipelines);
  for (const char* pass : kPasses) {
    const auto it = s.passes.find(pass);
    const PassAgg a = it == s.passes.end() ? PassAgg{} : it->second;
    m[std::string("opt.") + pass + ".ms"] = mean(a.ns, s.pipelines) / 1e6;
    m[std::string("opt.") + pass + ".removed"] = mean(a.removed, s.pipelines);
  }
  m["bvram.encode_ms"] = per_call_ms("bvram.encode");
  m["bvram.run_ms"] = per_call_ms("bvram.run");
  m["bvram.decode_ms"] = per_call_ms("bvram.decode");
  for (const auto op : reported_ops()) {
    const int i = static_cast<int>(op);
    const std::string base = std::string("bvram.op.") + nsc::bvram::op_name(op);
    m[base + ".ms"] = mean(s.op_ns[i], s.runs) / 1e6;
    m[base + ".bytes"] = mean(s.op_bytes[i], s.runs);
  }
  m["bvram.pool_misses"] = mean(s.pool_misses, s.runs);
  m["bvram.inplace_hits"] = mean(s.inplace_hits, s.runs);
  m["bvram.move_swaps"] = mean(s.move_swaps, s.runs);
  m["bvram.fused_groups"] = mean(s.fused_groups, s.runs);
  m["bvram.fused_fallbacks"] = mean(s.fused_fallbacks, s.runs);
  m["bvram.fused_elided"] = mean(s.fused_elided, s.runs);
  m["support.parallel.kernels"] = mean(s.par_kernels, s.runs);
  m["support.parallel.chunks"] = mean(s.par_chunks, s.runs);
  m["support.parallel.serial_kernels"] = mean(s.par_serial, s.runs);
  m["compile.layer_share"] =
      d.root_ns == 0 ? 0 : d.root_covered_ns / d.root_ns;
  return m;
}

std::map<std::string, double> layer_self_ms() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::map<std::string, double> out;
  for (const auto& [layer, ns] : derive(s.spans).layer_self_ns) {
    out[layer] = ns / 1e6;
  }
  return out;
}

void write_chrome(const std::string& path) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::ofstream out(path);
  out << "{\"otherData\":" << nsc::obs::Provenance::collect().to_json() << ",\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
         "\"perfbench\"}},\n"
      << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":{\"name\":"
         "\"serve spans\"}}";
  char buf[96];
  for (const Span& sp : s.spans) {
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                  static_cast<double>(sp.t0) / 1e3,
                  static_cast<double>(sp.t1 - sp.t0) / 1e3);
    out << ",\n{\"name\":\"" << sp.name << "\",\"cat\":\"" << layer_of(sp.name)
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << sp.tid << ",\"ts\":" << buf
        << ",\"args\":{\"id\":" << sp.id << ",\"parent\":" << sp.parent
        << ",\"request\":" << sp.request << "}}";
  }
  for (const auto& sp : s.service) {
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                  static_cast<double>(s.service_origin + sp.t0_ns) / 1e3,
                  static_cast<double>(sp.dur_ns) / 1e3);
    out << ",\n{\"name\":" << json_str(sp.phase)
        << ",\"cat\":\"serve\",\"ph\":\"X\",\"pid\":2,\"tid\":" << sp.worker
        << ",\"ts\":" << buf << ",\"args\":{\"request\":" << sp.request_id
        << ",\"batch\":" << sp.batch_id << ",\"size\":" << sp.size << "}}";
  }
  out << "\n]}\n";
}

}  // namespace pb::trace
