// Global value numbering, scoped by the dominator tree.
//
// PR 1's peephole ran value-numbering CSE over extended basic blocks
// only: facts flowed along unique-predecessor chains and died at every
// join point, so the identical scan/route subgraphs the flattening
// compiler re-emits per segment-descriptor level (seg_sum /
// gather_sorted inside FlattenF, SplitF, the Sum cases) stayed
// redundant whenever a combine_vec branch diamond sat between two
// copies.  This pass walks the *dominator tree* instead: everything
// established in a block holds in every block it dominates, so a
// recomputation after a join merges with the original before the branch.
//
// Non-SSA soundness: a table entry (expression -> {reg, vn}) is usable
// only while `reg` still holds that value.  Within the dominator-tree
// DFS the table tracks the state at the end of the dominating block;
// registers that may be redefined on some idom(c) -> c path that avoids
// re-entering idom(c) are invalidated ("killed" to a fresh value
// number) at c's entry.  For a block whose only CFG predecessor is its
// dominator-tree parent the kill set is empty (the EBB case); for a
// loop header dominated by the preheader it is exactly the loop body's
// definitions, which is what makes header facts sound on every
// iteration without iterating the analysis.
//
// The rewrite catalog is the peephole's original CSE logic, unchanged:
//   * a recomputation whose operands are value-identical to an earlier
//     eligible instruction becomes a Move from the earlier result
//     (trap-safe: re-executing a trapping instruction on identical
//     operand values cannot trap if the first execution did not), and
//     every eligible op's executed work is >= the Move's on any input
//     EXCEPT LoadConst (work 1 < the Move's 2), Length (1 < 2 when the
//     source is empty at run time), and SbmRoute (the only expanding
//     op); those are kept in place but their destination is aliased to
//     the earlier value number so downstream expressions still merge;
//   * the all-ones route algebra (PR 3): an executed bm-route whose
//     data is the known singleton [1] is the catalog's ones_like
//     broadcast -- its result is all-ones with the bound register's
//     length.  Select of such a register is a copy, a bm-route whose
//     counts/bound/data align with the ones fact replicates every
//     element exactly once (a Move at half the W, both certificates
//     discharged by value equality), and Length/Enumerate of an
//     all-ones register canonicalize to the broadcast source.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "opt/cfg.hpp"
#include "opt/opt.hpp"
#include "opt/valuetable.hpp"

namespace nsc::opt {
namespace {

using bvram::Instr;
using bvram::Op;
using bvram::Program;
using lang::ArithOp;

/// Computes the registers that may be redefined on some path
/// idom(c) ->* c that does not pass through idom(c) again: the forward
/// reach of idom(c)'s successors intersected with the backward reach of
/// c's predecessors, both computed with idom(c) removed from the graph.
/// Empty when c's only predecessor is idom(c).  The forward reach is
/// shared by every dominator-tree child of the same idom, so it is
/// memoized per idom across the DFS.
class KillSets {
 public:
  KillSets(const Program& p, const Cfg& cfg) : p_(p), cfg_(cfg) {}

  std::vector<std::uint32_t> of(std::size_t c, std::size_t idom) {
    const auto& preds = cfg_.blocks[c].preds;
    if (preds.size() == 1 && preds[0] == idom) return {};

    const std::size_t nb = cfg_.blocks.size();
    auto cached = fwd_cache_.find(idom);
    if (cached == fwd_cache_.end()) {
      std::vector<bool> fwd(nb, false);
      std::vector<std::size_t> stack;
      for (std::size_t s : cfg_.blocks[idom].succs) {
        if (s != idom && !fwd[s]) {
          fwd[s] = true;
          stack.push_back(s);
        }
      }
      while (!stack.empty()) {
        const std::size_t b = stack.back();
        stack.pop_back();
        for (std::size_t s : cfg_.blocks[b].succs) {
          if (s != idom && !fwd[s]) {
            fwd[s] = true;
            stack.push_back(s);
          }
        }
      }
      cached = fwd_cache_.emplace(idom, std::move(fwd)).first;
    }
    const std::vector<bool>& fwd = cached->second;

    std::vector<bool> bwd(nb, false);
    std::vector<std::size_t> stack;
    for (std::size_t q : preds) {
      if (q != idom && !bwd[q]) {
        bwd[q] = true;
        stack.push_back(q);
      }
    }
    while (!stack.empty()) {
      const std::size_t b = stack.back();
      stack.pop_back();
      for (std::size_t q : cfg_.blocks[b].preds) {
        if (q != idom && !bwd[q]) {
          bwd[q] = true;
          stack.push_back(q);
        }
      }
    }

    std::vector<bool> killed(p_.num_regs, false);
    std::vector<std::uint32_t> out;
    for (std::size_t b = 0; b < nb; ++b) {
      if (!fwd[b] || !bwd[b]) continue;
      for (std::size_t i = cfg_.blocks[b].begin; i < cfg_.blocks[b].end;
           ++i) {
        const Instr& in = p_.code[i];
        if (in.has_dst() && !killed[in.dst]) {
          killed[in.dst] = true;
          out.push_back(in.dst);
        }
      }
    }
    return out;
  }

 private:
  const Program& p_;
  const Cfg& cfg_;
  // idom -> forward reach of its successors with the idom removed; one
  // bit-vector per dominator-tree node that has a merge child, shared
  // by all of that node's children.
  std::unordered_map<std::size_t, std::vector<bool>> fwd_cache_;
};

class Gvn final : public Pass {
 public:
  const char* name() const override { return "gvn"; }

  bool run(Program& p) override {
    if (p.code.empty() || p.num_regs == 0) return false;
    const Cfg cfg = Cfg::build(p);
    const DomTree dom = DomTree::build(cfg);
    const SlotMap m = build_av_slots(p);
    AvDomain avdom{&p, &m};
    const ForwardDataflow<AvState, AvDomain> flow(p, cfg, avdom);

    bool changed = false;
    std::vector<bool> keep(p.code.size(), true);
    VnTable vn(p.num_regs);
    // vn of an all-ones vector -> vn of the register it was broadcast
    // over (same length by the route certificate).  Keyed by value
    // number, so no undo log is needed: value numbers are never reused,
    // and a rolled-back subtree's numbers are unreachable from sibling
    // scopes.  A fact is only derived from an executed (kept) bm-route,
    // so everything downstream of it in the dominated region may rely
    // on its certificates having held.
    std::map<std::uint64_t, std::uint64_t> ones_of;

    auto process_block = [&](std::size_t b) {
      AvState s = flow.in_state_of(b);
      for (std::size_t i = cfg.blocks[b].begin; i < cfg.blocks[b].end; ++i) {
        Instr& in = p.code[i];

        auto drop = [&] {
          keep[i] = false;
          changed = true;
        };
        auto replace = [&](Instr ni) {
          in = ni;
          changed = true;
        };

        // Route algebra over the ones facts (see the header comment).
        if (in.op == Op::Select && ones_of.count(vn.reg_vn[in.a]) > 0) {
          // sigma of an all-ones vector drops nothing: a copy.  W is
          // unchanged (|in| + |out| = 2n either way), and Select never
          // traps.
          replace({Op::Move, ArithOp::Add, in.dst, in.a, 0, 0, 0, 0});
        } else if (in.op == Op::BmRoute) {
          const auto it = ones_of.find(vn.reg_vn[in.b]);
          if (it != ones_of.end() && vn.reg_vn[in.a] == vn.reg_vn[in.b] &&
              vn.reg_vn[in.c] == it->second) {
            // All-ones counts replicate each element once, and both
            // certificates are discharged statically: |counts| =
            // |broadcast source| = |data| (value-equal registers), and
            // sum(counts) = |counts| = |bound| (bound value-equal to
            // counts).  The Move charges 2n against the route's 4n.
            replace({Op::Move, ArithOp::Add, in.dst, in.c, 0, 0, 0, 0});
          }
        }

        // Length and Enumerate depend only on their operand's *length*,
        // and an all-ones vector has its broadcast source's length: key
        // them under the source's value number so e.g. enumerate(ones(x))
        // merges with enumerate(x) via ordinary CSE.
        auto canon_key = [&](const Instr& ins) {
          VnKey key = vn.key_of(ins);
          if (ins.op == Op::Length || ins.op == Op::Enumerate) {
            const auto it = ones_of.find(vn.reg_vn[ins.a]);
            if (it != ones_of.end()) std::get<3>(key) = it->second + 1;
          }
          return key;
        };

        // CSE on whatever the instruction now is.  A hit normally
        // becomes a Move from the earlier result; LoadConst, Length and
        // SbmRoute are kept as-is but aliased (see the header comment).
        std::uint64_t alias_vn = 0;
        bool aliased = false;
        if (keep[i] && cse_eligible(p.code[i])) {
          const Instr& cur = p.code[i];
          const VnKey key = canon_key(cur);
          auto it = vn.exprs.find(key);
          if (it != vn.exprs.end() &&
              vn.reg_vn[it->second.reg] == it->second.vn) {
            const std::uint32_t e = it->second.reg;
            if (e == cur.dst) {
              drop();  // recomputes the value dst already holds
            } else if (cur.op == Op::LoadConst || cur.op == Op::Length ||
                       cur.op == Op::SbmRoute) {
              alias_vn = it->second.vn;
              aliased = true;
            } else {
              replace({Op::Move, ArithOp::Add, cur.dst, e, 0, 0, 0, 0});
            }
          }
        }

        // Value-number and abstract-state bookkeeping for the (possibly
        // rewritten) instruction.
        const Instr& fin = p.code[i];
        // An executed bm-route whose data is the known singleton [1] is
        // the catalog's ones_like broadcast: its result is all-ones with
        // the bound register's length.  Capture the bound's vn before the
        // dst assignment below possibly renumbers it.
        const bool broadcasts_ones = keep[i] && fin.op == Op::BmRoute &&
                                     m.get(s, fin.c) == AV::konst(1);
        const std::uint64_t broadcast_like_vn =
            broadcasts_ones ? vn.reg_vn[fin.a] : 0;
        if (fin.has_dst()) {
          if (keep[i]) {
            if (fin.op == Op::Move) {
              vn.set_reg_vn(fin.dst, vn.reg_vn[fin.a]);
            } else if (aliased) {
              // Same value as the recorded expression; keep its entry.
              vn.set_reg_vn(fin.dst, alias_vn);
            } else if (cse_eligible(fin)) {
              const VnKey key = canon_key(fin);
              const std::uint64_t v = vn.next_vn++;
              vn.set_reg_vn(fin.dst, v);
              vn.set_expr(key, {fin.dst, v});
            } else {
              vn.set_reg_vn(fin.dst, vn.next_vn++);
            }
            if (broadcasts_ones) {
              ones_of[vn.reg_vn[fin.dst]] = broadcast_like_vn;
            }
            avdom.transfer(fin, s);
          }
          // Dropped instructions leave dst's value (and number) unchanged.
        }
      }
    };

    // Depth-first over the dominator tree: facts flow into dominated
    // subtrees, sibling subtrees roll back, and each block first kills
    // the registers that intervening (non-dominating) code may redefine.
    KillSets kills(p, cfg);
    struct Frame {
      std::size_t block;
      std::size_t mark;
      std::size_t next_child;
    };
    std::vector<Frame> stack{{0, vn.mark(), 0}};
    process_block(0);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next_child < dom.children[f.block].size()) {
        const std::size_t c = dom.children[f.block][f.next_child++];
        const std::size_t mark = vn.mark();
        for (std::uint32_t r : kills.of(c, f.block)) {
          vn.set_reg_vn(r, vn.next_vn++);
        }
        stack.push_back({c, mark, 0});
        process_block(c);
      } else {
        vn.rollback(f.mark);
        stack.pop_back();
      }
    }

    const bool erased = erase_unkept(p, keep);
    return changed || erased;
  }
};

}  // namespace

std::unique_ptr<Pass> make_gvn() { return std::make_unique<Gvn>(); }

}  // namespace nsc::opt
