// BVRAM optimizer: a pass framework over bvram::Program.
//
// The flattening compiler (sa/compile.cpp, Theorem 7.1) emits each NSA
// combinator from a fixed catalog, so compiled programs carry pure
// overhead in the paper's T/W cost model: redundant Moves (the catalog
// routines stage everything through fresh registers), re-computed
// Lengths/Enumerates of the same register, constant chains, and
// registers that are written but never read.  The passes here remove
// that overhead while preserving the observable semantics *including
// traps*: an instruction that can raise a machine error (Arith length
// mismatch / division by zero, the routing certificates) is never
// deleted, and every rewrite is chosen so that the executed T and W
// never increase on any input.
//
// Pass suite (the loop-aware global pipeline; O2 runs copy-prop -> gvn
// -> licm -> peephole -> dce -> reg-compact to a fixpoint):
//   verify      structural well-formedness (register bounds incl. the
//               SbmRoute imm operand, jump targets, I/O arity) -- run
//               before and between passes, so an ill-formed program is a
//               compiler bug caught at compile time, not run time.
//   copy-prop   global copy propagation over the CFG (forward must-
//               dataflow); uses of a copied register are rewritten to
//               the original, which turns the compiler's staging moves
//               into dead code and exposes move coalescing.
//   gvn         dominator-tree-scoped global value numbering: redundant
//               recomputations (Length / Enumerate / ScanPlus / Arith /
//               Append / the routes) merge with the dominating original
//               even across branch diamonds -- the repeated scan/route
//               subgraphs the flattening compiler emits per segment-
//               descriptor level collapse here -- and the all-ones route
//               algebra discharges bm-route certificates by value
//               equality (select of ones is a copy, an all-ones route
//               is a Move at half the W).
//   licm        loop-invariant code motion over the natural-loop forest
//               (opt/cfg.hpp): invariant, provably-non-trapping
//               instructions -- including the catalog's ones_like /
//               broadcast masks, whose route certificate is discharged
//               through the value table -- move to a preheader that
//               entry edges flow through and back edges skip.
//   peephole    constant folding (LoadConst/LoadEmpty algebra over a
//               per-register {unknown, empty, [n]} lattice, seeded with
//               "non-input registers start empty" and branch-sensitive:
//               the taken edge of a GotoIfEmpty knows the tested
//               register is empty) and branch simplification.
//   dce         unreachable-code elimination plus liveness-based dead
//               code elimination on the fixed register file.
//   reg-compact dead-register elimination: renumber the register file so
//               unused registers disappear (the I/O convention pins
//               V_0 .. V_{max(in,out)-1}).
//
// The liveness analysis behind dce is shared (opt/liveness.hpp) and also
// exports per-instruction last-use masks (opt::annotate_last_use) that the
// execution engine in bvram/machine.cpp consumes to recycle dead operand
// buffers; sa::compile_nsa / compile_nsc annotate compiled programs as
// their final step.  The abstract-value lattice and the value-numbering
// table shared by gvn / licm / peephole live in opt/valuetable.hpp; the
// dominator tree and natural-loop forest in opt/cfg.hpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bvram/machine.hpp"
#include "support/checked.hpp"

namespace nsc::opt {

/// How hard the pipeline works.  O0 = naive emission untouched (for tests
/// that assert exact instruction sequences); O1 = one cleanup round
/// (GVN + peephole + DCE); O2 = full suite to fixpoint + register
/// compaction (the default in sa::compile_nsa / compile_nsc).
enum class OptLevel { O0, O1, O2 };

/// Scheduling policy for the compiler's *lifted* while loop (the while
/// case of the Map Lemma 7.2), threaded through sa::compile_nsa /
/// compile_nsc alongside OptLevel.  All three schedules compute
/// bit-identical outputs and traps; they differ only in how much work the
/// loop spends re-touching elements that have already terminated:
///
///   Naive   every iteration packs the unfinished elements out of the full
///           population and interleaves the stepped results back, so each
///           of the n slots is touched once per iteration: W can reach
///           Theta(n * rounds) even when almost all elements finished in
///           round one (the straggler adversary of bench_seqwhile).
///   Eager   finished elements are extracted once and appended to a single
///           archive, which is itself re-touched on every extraction round
///           (the ablation baseline: Theta(n * extraction-rounds) worst
///           case on the same adversary).
///   Staged  the Lemma 7.2 schedule: extractions append to a small V1
///           buffer that is flushed into the V2 archive only when the
///           total extracted count crosses the thresholds ceil(n^(k*eps)),
///           k = 1, 2, ...; V2 is touched only ~1/eps times.  The emitted
///           register file is identical for every eps (only threshold
///           constants change) -- Theorem 7.1's "registers independent of
///           eps" clause.
///
/// Eager/staged loops log the per-round pack flags and at exit restore the
/// original element order by replaying the packs backwards, so the final
/// state is bit-identical to the naive schedule at every SEQREP width
/// (nested maps included).
enum class WhileScheduleKind { Naive, Eager, Staged };

struct WhileSchedule {
  WhileScheduleKind kind = WhileScheduleKind::Naive;
  /// Threshold exponent for Staged (ignored otherwise): flushes happen at
  /// extracted-count thresholds ~n^(k*eps), computed at run time from the
  /// population with pow_eps-style integer arithmetic.
  Rational eps{1, 2};

  static WhileSchedule naive() { return {}; }
  static WhileSchedule eager() { return {WhileScheduleKind::Eager, {1, 2}}; }
  static WhileSchedule staged(Rational eps = {1, 2}) {
    return {WhileScheduleKind::Staged, eps};
  }
};

/// Structural verifier: register bounds (including SbmRoute's segment
/// operand carried in `imm`), jump targets, and I/O arity.  Throws
/// MachineError on the first violation.
void verify(const bvram::Program& p);

/// A rewrite over a whole program.  Passes may delete and replace
/// instructions (jump targets are kept consistent) but must preserve the
/// program's observable behavior: outputs, traps, and an executed T and W
/// no larger than before, on every input.
class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const = 0;
  /// Rewrite `p` in place; returns true if anything changed.
  virtual bool run(bvram::Program& p) = 0;
};

std::unique_ptr<Pass> make_copy_prop();
std::unique_ptr<Pass> make_gvn();
std::unique_ptr<Pass> make_licm();
std::unique_ptr<Pass> make_peephole();
std::unique_ptr<Pass> make_dce();
std::unique_ptr<Pass> make_reg_compact();

struct PassStats {
  std::string name;
  std::size_t applications = 0;    ///< runs that changed the program
  std::size_t instrs_removed = 0;  ///< net instruction-count reduction
  std::uint64_t wall_ns = 0;       ///< total wall time across all rounds
};

struct PipelineStats {
  std::size_t instrs_before = 0;
  std::size_t instrs_after = 0;
  std::size_t regs_before = 0;
  std::size_t regs_after = 0;
  std::size_t rounds = 0;
  std::uint64_t wall_ns = 0;  ///< whole-pipeline wall time (incl. verify)
  std::vector<PassStats> passes;

  std::string show() const;
};

/// Runs a pass list to a fixpoint (bounded by `max_rounds`), verifying
/// between passes, and collects per-pass instruction-count stats.
class PassManager {
 public:
  /// `verify_between`: re-run the structural verifier after every pass
  /// (cheap, and turns a miscompiling pass into an immediate error).
  explicit PassManager(bool verify_between = true)
      : verify_between_(verify_between) {}

  void add(std::unique_ptr<Pass> pass);

  PipelineStats run(bvram::Program& p, std::size_t max_rounds = 8);

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  bool verify_between_ = true;
};

/// Verify + run the standard pipeline for `level` on `p` in place.
PipelineStats optimize(bvram::Program& p, OptLevel level = OptLevel::O2);

}  // namespace nsc::opt
