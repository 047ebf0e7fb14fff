// Span tracing for the traced run, kept entirely outside src/.
//
// Spans come from two places: the benchmark's own code (one span per timed
// operation, per load, per request) and wrap.cpp, which the traced binary
// links with -Wl,--wrap so that every call into a layer's public entry
// point (front::parse_module, nsa::from_closed_func, opt::optimize,
// bvram::run, ...) is bracketed by a span -- including calls the library
// makes on service worker threads.  Spans live in memory and are written
// as a Chrome trace when the run ends; layer self time (a span's duration
// minus the part its children cover) is derived from them.
//
// In the untraced binary `traced_binary` is false and every Scope is a
// no-op: the end-to-end numbers are measured with no observer attached.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bvram/machine.hpp"
#include "common.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "opt/opt.hpp"

namespace pb::trace {

/// True in perfbench_traced (wrap.cpp), false in perfbench (untraced.cpp).
extern const bool traced_binary;

void enable();
bool on();

/// RAII span.  `name` is "<layer>.<what>" and must outlive the run (a
/// string literal).  The parent is the innermost open span on this thread.
class Scope {
 public:
  explicit Scope(const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t t0_ = 0;
  const char* name_ = nullptr;
};

/// Request id stamped on spans opened by this thread (0 = none).
void set_request(std::uint64_t id);

// Layer counters fed by the wrappers.
void note_nsa_nodes(std::size_t nodes);
void note_pipeline(const nsc::opt::PipelineStats& stats);
void note_run(const nsc::bvram::Program& program,
              const nsc::bvram::RunResult& result);

/// Service-internal spans (ServeConfig::spans) to merge into the Chrome
/// trace; `origin_ns` is trace-clock time at the SpanLog's construction.
void add_service_spans(const std::vector<nsc::obs::ServeSpan>& spans,
                       std::uint64_t origin_ns);
/// Nanoseconds on the trace clock.
std::uint64_t now_ns();

/// Every per-layer metric, in report order.  The vector opcodes come from
/// bvram::op_name, the passes from kPasses, the speedups from
/// program_specs(); BENCHMARK.json must list exactly these.
const std::vector<MetricDef>& per_layer_defs();

/// Per-layer metrics derived from the spans and counters, as per-call means.
/// compile.layer_share is the share of the wall time of the operations that
/// compile (bench.compile and serve.load spans) spent in front, nsa, sa and
/// opt spans.
std::map<std::string, double> layer_metrics();

/// Self time per layer (front, nsa, sa, opt, bvram, serve, bench), ms.
std::map<std::string, double> layer_self_ms();

void write_chrome(const std::string& path);

}  // namespace pb::trace
