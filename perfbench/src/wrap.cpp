// Linker wraps for the traced program (see CMakeLists.txt): each layer's
// public entry point is bracketed by a span, and the engine's own opt-in
// profiler (RunConfig::profile, a pure observer) is switched on so opcode
// times and engine counters reach the trace.  Calls that stay inside one
// object file of the library are not redirected, which keeps the spans at
// layer boundaries.
#include "front/front.hpp"
#include "nsa/from_nsc.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "serve/cache.hpp"
#include "trace.hpp"

namespace pb::trace {
const bool traced_binary = true;
}

namespace {

namespace F = nsc::front;
namespace B = nsc::bvram;
namespace O = nsc::opt;
using nsc::lang::FuncRef;
using nsc::nsa::NsaRef;
using nsc::sa::Vec;
using Regs = std::vector<Vec>;
using pb::trace::Scope;

#define PB_SYM(mangled) __asm__("__real_" mangled)
#define PB_WRAP(mangled) __asm__("__wrap_" mangled)

// Mangled names of the wrapped entry points (Itanium ABI).  CMakeLists.txt
// reads these lines to pass --wrap=<name> to the linker; keep one per line.
// clang-format off
#define PARSE "_ZN3nsc5front12parse_moduleERKNS0_10SourceFileE"
#define RESOLVE "_ZN3nsc5front7resolveERKNS0_6ModuleERKNS0_10SourceFileE"
#define FROM_CLOSED "_ZN3nsc3nsa16from_closed_funcERKSt10shared_ptrIKNS_4lang4FuncEE"
#define COMPILE_NSC "_ZN3nsc2sa11compile_nscERKSt10shared_ptrIKNS_4lang4FuncEENS_3opt8OptLevelERKNS8_13WhileScheduleEPNS8_13PipelineStatsE"
#define OPTIMIZE "_ZN3nsc3opt8optimizeERNS_5bvram7ProgramENS0_8OptLevelE"
#define COMPILE_PROGRAM "_ZN3nsc5serve15compile_programERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt10shared_ptrIKNS_4lang4FuncEERKS9_IKNS_4TypeEESK_RKNS0_8CacheKeyE"
#define ENCODE "_ZN3nsc2sa12encode_valueERKSt10shared_ptrIKNS_5ValueEERKS1_IKNS_4TypeEE"
#define DECODE "_ZN3nsc2sa12decode_valueERKSt10shared_ptrIKNS_4TypeEERKSt6vectorIS7_ImSaImEESaIS9_EE"
#define RUN "_ZN3nsc5bvram3runERKNS0_7ProgramERKSt6vectorIS4_ImSaImEESaIS6_EERKNS0_9RunConfigE"
// clang-format on

}  // namespace

// The real entry points, as the linker renames them.
F::Module real_parse(const F::SourceFile&) PB_SYM(PARSE);
F::ResolvedModule real_resolve(const F::Module&, const F::SourceFile&)
    PB_SYM(RESOLVE);
NsaRef real_from_closed(const FuncRef&) PB_SYM(FROM_CLOSED);
B::Program real_compile_nsc(const FuncRef&, O::OptLevel,
                            const O::WhileSchedule&, O::PipelineStats*)
    PB_SYM(COMPILE_NSC);
O::PipelineStats real_optimize(B::Program&, O::OptLevel) PB_SYM(OPTIMIZE);
std::shared_ptr<const nsc::serve::CompiledProgram> real_compile_program(
    const std::string&, const FuncRef&, const nsc::TypeRef&,
    const nsc::TypeRef&, const nsc::serve::CacheKey&) PB_SYM(COMPILE_PROGRAM);
Regs real_encode(const nsc::ValueRef&, const nsc::TypeRef&) PB_SYM(ENCODE);
nsc::ValueRef real_decode(const nsc::TypeRef&, const Regs&) PB_SYM(DECODE);
B::RunResult real_run(const B::Program&, const Regs&, const B::RunConfig&)
    PB_SYM(RUN);

// The wrappers the linker substitutes for every cross-object reference.
F::Module wrap_parse(const F::SourceFile& src) PB_WRAP(PARSE);
F::Module wrap_parse(const F::SourceFile& src) {
  Scope s("front.parse");
  return real_parse(src);
}

F::ResolvedModule wrap_resolve(const F::Module& m, const F::SourceFile& src)
    PB_WRAP(RESOLVE);
F::ResolvedModule wrap_resolve(const F::Module& m, const F::SourceFile& src) {
  Scope s("front.resolve");
  return real_resolve(m, src);
}

NsaRef wrap_from_closed(const FuncRef& f) PB_WRAP(FROM_CLOSED);
NsaRef wrap_from_closed(const FuncRef& f) {
  NsaRef out;
  {
    Scope s("nsa.from_nsc");
    out = real_from_closed(f);
  }
  if (pb::trace::on()) pb::trace::note_nsa_nodes(out->node_count());
  return out;
}

B::Program wrap_compile_nsc(const FuncRef& f, O::OptLevel level,
                            const O::WhileSchedule& sched,
                            O::PipelineStats* stats) PB_WRAP(COMPILE_NSC);
B::Program wrap_compile_nsc(const FuncRef& f, O::OptLevel level,
                            const O::WhileSchedule& sched,
                            O::PipelineStats* stats) {
  Scope s("sa.compile");
  return real_compile_nsc(f, level, sched, stats);
}

O::PipelineStats wrap_optimize(B::Program& p, O::OptLevel level)
    PB_WRAP(OPTIMIZE);
O::PipelineStats wrap_optimize(B::Program& p, O::OptLevel level) {
  O::PipelineStats st;
  {
    Scope s("opt.optimize");
    st = real_optimize(p, level);
  }
  if (pb::trace::on()) pb::trace::note_pipeline(st);
  return st;
}

std::shared_ptr<const nsc::serve::CompiledProgram> wrap_compile_program(
    const std::string& name, const FuncRef& fn, const nsc::TypeRef& dom,
    const nsc::TypeRef& cod, const nsc::serve::CacheKey& key)
    PB_WRAP(COMPILE_PROGRAM);
std::shared_ptr<const nsc::serve::CompiledProgram> wrap_compile_program(
    const std::string& name, const FuncRef& fn, const nsc::TypeRef& dom,
    const nsc::TypeRef& cod, const nsc::serve::CacheKey& key) {
  Scope s("serve.compile_program");
  return real_compile_program(name, fn, dom, cod, key);
}

Regs wrap_encode(const nsc::ValueRef& v, const nsc::TypeRef& t)
    PB_WRAP(ENCODE);
Regs wrap_encode(const nsc::ValueRef& v, const nsc::TypeRef& t) {
  Scope s("bvram.encode");
  return real_encode(v, t);
}

nsc::ValueRef wrap_decode(const nsc::TypeRef& t, const Regs& regs)
    PB_WRAP(DECODE);
nsc::ValueRef wrap_decode(const nsc::TypeRef& t, const Regs& regs) {
  Scope s("bvram.decode");
  return real_decode(t, regs);
}

B::RunResult wrap_run(const B::Program& p, const Regs& in,
                      const B::RunConfig& cfg) PB_WRAP(RUN);
B::RunResult wrap_run(const B::Program& p, const Regs& in,
                      const B::RunConfig& cfg) {
  if (!pb::trace::on()) return real_run(p, in, cfg);
  B::RunConfig profiled = cfg;
  profiled.profile = true;
  B::RunResult r;
  {
    Scope s("bvram.run");
    r = real_run(p, in, profiled);
  }
  pb::trace::note_run(p, r);
  if (!cfg.profile) {  // hand back exactly what the caller asked for
    r.profile.clear();
    r.engine = {};
  }
  return r;
}
