// CompiledMatcher: the threaded-code VM behind --matcher compiled.
//
// The delta-driving skeleton is the TREAT algorithm, step for step (see
// match/treat.cpp); what changes is the hot paths. Alpha routing runs
// the compiled discrimination net instead of re-testing every spec, and
// the seminaive derive / pinned-rematch joins execute specialized
// bytecode on a threaded-code interpreter (computed goto on GCC/Clang,
// switch fallback) with all iteration state preallocated — no per-node
// allocations, unlike the interpreter's recursive DFS.
//
// Because the programs enumerate candidates in exactly the interpreter's
// order over identically populated alpha memories, the conflict set —
// contents AND InstIds — is bit-identical to TreatMatcher's. That makes
// the compiled matcher a drop-in for the seq/par engines, sessions, the
// sharded NetServer, and journal recovery, with the interpreter as the
// oracle (tests/test_random_programs.cpp holds fingerprints, conflict
// sizes, and cycle counts equal across both).
#pragma once

#include <span>
#include <vector>

#include "compile/bytecode.hpp"
#include "match/join.hpp"
#include "match/matcher.hpp"
#include "match/quant_index.hpp"
#include "obs/stats.hpp"

namespace parulel {

class CompiledMatcher : public Matcher {
 public:
  /// `rules` and `alpha_specs` must outlive the matcher (they live in
  /// the Program). Compiles at construction; codegen cost lands in
  /// compile_stats().codegen_ns.
  CompiledMatcher(std::span<const CompiledRule> rules,
                  std::span<const AlphaSpec> alpha_specs,
                  std::size_t template_count);

  void apply_delta(const WorkingMemory& wm, const Delta& delta) override;
  ConflictSet& conflict_set() override { return cs_; }
  const MatchStats& stats() const override { return stats_; }
  const char* name() const override { return "compiled"; }
  const CompileStats* compile_stats() const override { return &cstats_; }

  /// The code image this matcher executes (tests, --compile-dump).
  const CodeImage& image() const { return image_; }

 protected:
  MatchStats& stats_mut() override { return stats_; }

 private:
  /// Classify a fact through the discrimination net; fills net_out_
  /// with accepting alpha ids in ascending order.
  void run_net(const WorkingMemory& wm, FactId fid);

  /// Execute a program (net, derive, or rematch) with `pivot` as the
  /// classified/fixed/blocker fact. Join programs emit into the
  /// conflict set.
  void execute(const WorkingMemory& wm, std::int32_t entry, FactId pivot);

  /// Quantified-CE satisfaction under the current env (Quant opcode).
  bool quant_found(const WorkingMemory& wm, const QuantCheck& q);

  /// Conflict-set emission for a fully bound join (Emit opcode).
  void do_emit(std::int32_t rule_operand);

  // Cold paths, identical to TreatMatcher (they are hash-probe bound,
  // not dispatch bound).
  void remove_blocked(const WorkingMemory& wm, RuleId rule, int neg_index,
                      FactId fid);
  void remove_disabled(const WorkingMemory& wm, RuleId rule, int neg_index,
                       FactId fid);

  std::span<const CompiledRule> rules_;
  AlphaStore alphas_;
  JoinEngine join_;  ///< plan construction + quantifier helpers
  ConflictSet cs_;
  QuantIndex quant_;
  MatchStats stats_;
  CompileStats cstats_;
  CodeImage image_;

  struct AlphaUse {
    RuleId rule;
    int position;
  };
  std::vector<std::vector<AlphaUse>> positive_uses_;
  std::vector<std::vector<AlphaUse>> negative_uses_;

  // Preallocated interpreter state (sized from the image at build).
  struct Frame {
    const FactRow* data = nullptr;
    std::size_t size = 0;
    std::size_t idx = 0;
    /// The probe's canonical-key match already proved every candidate
    /// passes the level's verify list (NextVerify skips its eq loop).
    bool verified = false;
  };
  std::vector<Value> env_;
  // Hash of env_[r], maintained at Bind/PinLoad for registers the
  // compiler flagged as probe keys. Probe hashes are composed from this
  // cache, so the inner join loops never rehash a Value. Entries for
  // unflagged registers are stale by design — the plans guarantee every
  // keyed register is written before the probe that reads it.
  std::vector<std::size_t> env_hash_;
  std::vector<FactId> facts_;
  std::vector<Frame> frames_;
  std::vector<std::uint32_t> net_out_;
  FactRow fixed_[1] = {kNoFactRow};

  // Per-delta scratch.
  std::vector<std::uint32_t> added_alphas_;   ///< flattened per-fact hits
  std::vector<std::size_t> added_offsets_;
  std::vector<Value> env_scratch_;
};

}  // namespace parulel
