// Shared join machinery for the TREAT-family matchers.
//
// A JoinPlanner precomputes, per rule and per positive position, which
// alpha memory to draw candidates from and which hash index to probe
// (keyed by the already-bound join variables). Enumeration is a DFS over
// positive positions with guards applied as early as their variables are
// bound, and negated CEs checked once the full positive join is bound.
//
// Seminaive use: fixing (position, fact) enumerates exactly the
// instantiations that include a given new fact at a given position.
// derive() goes one step further and, given the delta's DeriveWindow,
// enumerates each new instantiation from only one of its seeds (see
// DeriveWindow), so a delta derives every new match exactly once.
// exists() walks the same plan but stops at the first complete match:
// the existential query the meta engine asks per redaction target.
//
// Hot-path structure: probe hashes are composed directly from the bound
// environment (no key-value vector is materialized), index groups are
// iterated in place (alpha memories are never mutated while a join
// runs), and when a group's canonical key matches the environment and
// the key covers every join equality, the per-candidate verify loop is
// skipped entirely (see AlphaMemory::ProbeHit).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lang/expr.hpp"
#include "match/alpha.hpp"
#include "match/instantiation.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

/// Join plan for one positive or negative pattern position.
struct PositionPlan {
  std::uint32_t alpha = 0;
  int index_handle = -1;           ///< -1 => full scan of the alpha memory
  std::vector<int> key_slots;      ///< index slot list (sorted)
  std::vector<VarId> key_vars;     ///< env var per key slot
  std::vector<CompiledPattern::JoinEq> join_eqs;  ///< full verify list
  /// True when the index key covers every join equality (no slot joined
  /// against two variables): a canonical-key match then verifies all
  /// candidates of the group at once.
  bool key_covers = false;
};

/// Precomputed fast path for re-deriving a rule after a negated CE's
/// blocker fact is retracted: probe positive position 0 by the slots
/// that define the pinned variables, instead of scanning its alpha.
struct NegRematchPlan {
  int index_handle = -1;        ///< on positives[0]'s alpha; -1 = scan
  std::vector<int> pos0_slots;  ///< index slot list (sorted)
  std::vector<VarId> pos0_vars; ///< pinned var per slot
  /// Pins to apply during the DFS: (rule var, value from blocker slot).
  struct Pin {
    VarId var;
    int blocker_slot;
  };
  std::vector<Pin> pins;
};

/// One step of a reordered derivation join (seminaive matching).
struct DeriveStep {
  int pattern = 0;           ///< positive CE index this step binds
  std::uint32_t alpha = 0;
  /// Slot must equal an already-bound variable (under THIS ordering).
  std::vector<CompiledPattern::JoinEq> eqs;
  /// Slot defines a variable (under THIS ordering).
  std::vector<CompiledPattern::Binding> defs;
  int index_handle = -1;     ///< on `alpha` over eq slots; -1 = scan
  std::vector<int> key_slots;
  std::vector<VarId> key_vars;
  bool key_covers = false;   ///< see PositionPlan::key_covers
  /// Guards that become evaluable once this step binds its variables.
  std::vector<const CompiledExpr*> guards;
  /// This position comes before the plan's fixed position in the seeding
  /// order (alpha id, then position): the seed itself may not fill it.
  bool seeded_earlier = false;
};

/// Reordered join for deriving instantiations that contain a new fact
/// at one fixed position: step 0 IS that position, later steps greedily
/// prefer patterns joinable (hash-probe-able) against bound variables.
struct DerivePlan {
  std::vector<DeriveStep> steps;
};

/// Per-rule join plan.
struct RulePlan {
  std::vector<PositionPlan> positives;
  std::vector<PositionPlan> negatives;
  /// Positive position that defines each LHS variable (index = VarId).
  std::vector<int> def_position;
  /// One rematch fast path per negated CE (aligned with negatives).
  std::vector<NegRematchPlan> neg_rematch;
  /// One reordered derivation plan per positive position.
  std::vector<DerivePlan> derive;
};

/// An equality pin on a rule variable, used to narrow re-derivation
/// after a negated CE's blocker is retracted: only bindings that agree
/// with the vanished blocker's join key can have become enabled.
struct VarConstraint {
  VarId var;
  Value value;
};

/// Builds plans and registers the needed indexes on an AlphaStore.
/// Must run before any fact enters the store.
std::vector<RulePlan> build_join_plans(std::span<const CompiledRule> rules,
                                       AlphaStore& alphas);

/// Once-only window for seminaive derivation from one delta.
///
/// A TREAT matcher seeds every added fact, in ascending id, at every
/// positive position whose alpha accepts it, in (alpha id, position)
/// order. An instantiation holding k seedings of the delta's facts would
/// be derived k times and deduplicated after the fact. derive() instead
/// emits it only from its first seeding: past step 0 it skips
///   - an earlier seed of the same delta: ids in [delta_front, seed).
///     Ids are handed out monotonically and a fact retracted within the
///     delta never reaches an alpha memory, so an alive fact in that
///     range is exactly an earlier added fact of this delta;
///   - the seed itself at a position seeded before seed_pos
///     (DeriveStep::seeded_earlier).
/// Every surviving emission is the one the conflict set would have
/// accepted, in the same order, so instantiation ids are unchanged.
struct DeriveWindow {
  FactId delta_front = kInvalidFact;  ///< lowest added id of the delta
  FactId seed = kInvalidFact;         ///< the fact fixed at step 0
  int seed_pos = 0;                   ///< positive position it fills
};

/// Reusable DFS buffers for JoinEngine::derive/exists/
/// enumerate_unblocked. Callers that enumerate in a loop keep one of
/// these per thread so the per-call vectors stop hitting the allocator.
struct JoinScratch {
  std::vector<Value> env;
  std::vector<FactId> facts;
  std::vector<VarConstraint> pins;  ///< enumerate_unblocked's pins
  std::vector<Value> probe_key;     ///< and its position-0 probe key
};

/// Join enumerator over one rule set + alpha store.
class JoinEngine {
 public:
  JoinEngine(std::span<const CompiledRule> rules, AlphaStore& alphas)
      : rules_(rules), alphas_(alphas), plans_(build_join_plans(rules, alphas)) {}

  AlphaStore& alphas() { return alphas_; }
  const AlphaStore& alphas() const { return alphas_; }
  const RulePlan& plan(RuleId rule) const { return plans_[rule]; }
  const std::vector<RulePlan>& plans() const { return plans_; }

  /// Seminaive derivation: the instantiations of `rule` containing
  /// `win.seed` at positive position `win.seed_pos` that no earlier
  /// seeding of the delta derives (see DeriveWindow), enumerated via the
  /// reordered DerivePlan (starts at the seed, hash-joins outward).
  /// Caller-owned DFS buffers: this is the hot loop.
  template <typename Emit>
  void derive(const WorkingMemory& wm, RuleId rule, const DeriveWindow& win,
              JoinScratch& scratch, Emit&& emit) const {
    const CompiledRule& r = rules_[rule];
    const RulePlan& plan = plans_[rule];
    const DerivePlan& dp =
        plan.derive[static_cast<std::size_t>(win.seed_pos)];
    scratch.env.assign(static_cast<std::size_t>(r.num_vars), Value{});
    scratch.facts.assign(r.positives.size(), kInvalidFact);
    derive_dfs<true>(wm, r, plan, dp, 0, win, scratch.env, scratch.facts,
                     [&](const std::vector<FactId>& facts,
                         std::span<const Value> env) {
                       emit(facts, env);
                       return false;
                     });
  }

  /// Does `rule` have at least one match with `target` (a fact in the
  /// alpha of positive position `target_pos`) at that position? Walks
  /// the same reordered plan as derive() and returns at the first
  /// complete match. No once-only window applies: the target may fill
  /// other positions too, so an unguarded self-join matches (f, f).
  bool exists(const WorkingMemory& wm, RuleId rule, int target_pos,
              FactId target, JoinScratch& scratch) const {
    const CompiledRule& r = rules_[rule];
    const RulePlan& plan = plans_[rule];
    const DerivePlan& dp = plan.derive[static_cast<std::size_t>(target_pos)];
    scratch.env.assign(static_cast<std::size_t>(r.num_vars), Value{});
    scratch.facts.assign(r.positives.size(), kInvalidFact);
    return derive_dfs<false>(
        wm, r, plan, dp, 0, {kInvalidFact, target, target_pos}, scratch.env,
        scratch.facts,
        [](const std::vector<FactId>&, std::span<const Value>) {
          return true;
        });
  }

  /// Re-derive the instantiations of `rule` that the retraction of
  /// `blocker` (a fact that matched negated CE `neg_index`) may have
  /// enabled. Only bindings agreeing with the blocker's join key are
  /// enumerated, probing position 0 by index when possible. `scratch`
  /// holds the DFS buffers.
  template <typename Emit>
  void enumerate_unblocked(const WorkingMemory& wm, RuleId rule,
                           std::size_t neg_index, const FactView& blocker,
                           JoinScratch& scratch, Emit&& emit) const {
    const CompiledRule& r = rules_[rule];
    const RulePlan& plan = plans_[rule];
    const NegRematchPlan& rp = plan.neg_rematch[neg_index];

    std::vector<VarConstraint>& pins = scratch.pins;
    pins.clear();
    for (const auto& pin : rp.pins) {
      pins.push_back(
          {pin.var, blocker.slot(static_cast<std::size_t>(pin.blocker_slot))});
    }

    Pos0Probe probe;
    const Pos0Probe* probe_ptr = nullptr;
    if (rp.index_handle >= 0) {
      probe.index_handle = rp.index_handle;
      scratch.probe_key.clear();
      for (std::size_t i = 0; i < rp.pos0_slots.size(); ++i) {
        // pos0_vars[i] is pinned; its value comes from the blocker.
        for (const auto& pin : pins) {
          if (pin.var == rp.pos0_vars[i]) {
            scratch.probe_key.push_back(pin.value);
            break;
          }
        }
      }
      probe.key = scratch.probe_key;
      probe_ptr = &probe;
    }

    scratch.env.assign(static_cast<std::size_t>(r.num_vars), Value{});
    scratch.facts.assign(r.positives.size(), kInvalidFact);
    dfs(wm, r, plan, 0, pins, probe_ptr, scratch.env, scratch.facts, emit);
  }

  /// True when every quantified CE of `rule` is satisfied under the
  /// bound environment ((not ...) empty, (exists ...) non-empty).
  bool negatives_ok(const WorkingMemory& wm, const CompiledRule& rule,
                    const RulePlan& plan, std::span<const Value> env) const;

  /// Does at least one alive fact match quantified CE `neg` under env?
  bool quantified_satisfied(const WorkingMemory& wm, const PositionPlan& neg,
                            std::span<const Value> env) const;

  /// True when `fact` (known to be in the negative pattern's alpha)
  /// blocks `env`, i.e. satisfies the pattern's join tests.
  static bool fact_blocks(const FactView& fact, const PositionPlan& neg,
                          std::span<const Value> env);

 private:
  struct Pos0Probe {
    int index_handle = -1;
    std::span<const Value> key;
  };

  /// Join-key hash composed straight from the environment (must agree
  /// with AlphaMemory's insert-side key: kJoinKeySeed + hash_combine).
  static std::size_t env_key_hash(std::span<const VarId> key_vars,
                                  std::span<const Value> env) {
    std::size_t h = kJoinKeySeed;
    for (VarId v : key_vars) {
      h = hash_combine(h, env[static_cast<std::size_t>(v)].hash());
    }
    return h;
  }

  /// Does the pure group's canonical key (read off its representative
  /// member's slot columns) equal the bound key values? When true every
  /// group member shares those key slots — no per-candidate re-check of
  /// the key is needed.
  static bool canon_matches(const FactView& rep, const int* rep_slots,
                            std::span<const VarId> key_vars,
                            std::span<const Value> env) {
    for (std::size_t i = 0; i < key_vars.size(); ++i) {
      if (rep.slot(static_cast<std::size_t>(rep_slots[i])) !=
          env[static_cast<std::size_t>(key_vars[i])]) {
        return false;
      }
    }
    return true;
  }

  /// DFS over a DerivePlan from step `s`. `emit` returns true to stop
  /// the walk; so does derive_dfs. kOnceOnly applies `win`'s once-only
  /// filter (derive); without it only win.seed is read (exists).
  template <bool kOnceOnly, typename Emit>
  bool derive_dfs(const WorkingMemory& wm, const CompiledRule& r,
                  const RulePlan& plan, const DerivePlan& dp, std::size_t s,
                  const DeriveWindow& win, std::vector<Value>& env,
                  std::vector<FactId>& facts, Emit&& emit) const {
    if (s == dp.steps.size()) {
      return negatives_ok(wm, r, plan, env) && emit(facts, env);
    }
    const DeriveStep& step = dp.steps[s];
    const FactStore& store = wm.store();

    // `verified` skips the eq loop when the group's canonical key
    // already proved every join equality for this candidate.
    auto try_fact = [&](FactRow row, bool verified) {
      const FactView fact = store.view_row(row);
      const FactId id = fact.id();
      if constexpr (kOnceOnly) {
        // Once-only: an earlier seeding of the delta derives this match
        // (see DeriveWindow). Step 0's own seed passes: it is not
        // earlier than itself.
        if (id < win.seed ? id >= win.delta_front
                          : id == win.seed && step.seeded_earlier) {
          return false;
        }
      }
      if (!verified) {
        for (const auto& eq : step.eqs) {
          if (fact.slot(static_cast<std::size_t>(eq.slot)) !=
              env[static_cast<std::size_t>(eq.var)]) {
            return false;
          }
        }
      }
      for (const auto& def : step.defs) {
        env[static_cast<std::size_t>(def.var)] =
            fact.slot(static_cast<std::size_t>(def.slot));
      }
      for (const CompiledExpr* guard : step.guards) {
        if (!CompiledExpr::truthy(guard->eval(env))) return false;
      }
      facts[static_cast<std::size_t>(step.pattern)] = id;
      return derive_dfs<kOnceOnly>(wm, r, plan, dp, s + 1, win, env, facts,
                                   emit);
    };

    if (s == 0) {
      // Step 0 is the fixed position: exactly the seed.
      return try_fact(store.row_of(win.seed), false);
    }
    const AlphaMemory& mem = alphas_.memory(step.alpha);
    if (step.index_handle >= 0) {
      const auto hit = mem.probe_group_canon(
          step.index_handle, env_key_hash(step.key_vars, env));
      if (!hit.group) return false;
      const bool verified = hit.rep != kNoFactRow && step.key_covers;
      if (verified && !canon_matches(store.view_row(hit.rep), hit.rep_slots,
                                     step.key_vars, env)) {
        return false;
      }
      for (FactRow row : *hit.group) {
        if (try_fact(row, verified)) return true;
      }
      return false;
    }
    // No join key: scan the whole memory in place (alpha memories are
    // never mutated while a join enumerates).
    for (FactRow row : mem.rows()) {
      if (try_fact(row, false)) return true;
    }
    return false;
  }

  template <typename Emit>
  void dfs(const WorkingMemory& wm, const CompiledRule& r,
           const RulePlan& plan, std::size_t p,
           std::span<const VarConstraint> constraints,
           const Pos0Probe* probe0, std::vector<Value>& env,
           std::vector<FactId>& facts, Emit&& emit) const {
    if (p == r.positives.size()) {
      if (negatives_ok(wm, r, plan, env)) emit(facts, env);
      return;
    }
    const CompiledPattern& pat = r.positives[p];
    const PositionPlan& pos = plan.positives[p];
    const AlphaMemory& mem = alphas_.memory(pos.alpha);
    const FactStore& store = wm.store();

    auto try_fact = [&](FactRow row, bool verified) {
      const FactView fact = store.view_row(row);
      if (!verified) {
        for (const auto& eq : pos.join_eqs) {
          if (fact.slot(static_cast<std::size_t>(eq.slot)) !=
              env[static_cast<std::size_t>(eq.var)]) {
            return;
          }
        }
      }
      for (const auto& def : pat.defines) {
        env[static_cast<std::size_t>(def.var)] =
            fact.slot(static_cast<std::size_t>(def.slot));
      }
      // Constraint pins become checkable the moment their variable is
      // defined; pruning here keeps constrained re-derivation narrow.
      for (const auto& pin : constraints) {
        if (plan.def_position[static_cast<std::size_t>(pin.var)] ==
                static_cast<int>(p) &&
            env[static_cast<std::size_t>(pin.var)] != pin.value) {
          return;
        }
      }
      for (const auto& guard : r.guards[p]) {
        if (!CompiledExpr::truthy(guard.eval(env))) return;
      }
      facts[p] = fact.id();
      dfs(wm, r, plan, p + 1, constraints, probe0, env, facts, emit);
    };

    if (p == 0 && probe0 != nullptr) {
      // Constrained re-derivation: probe position 0 by the pinned slots.
      if (const AlphaMemory::Group* g = mem.probe_group(
              probe0->index_handle, join_key_hash(probe0->key))) {
        for (FactRow row : *g) try_fact(row, false);
      }
      return;
    }
    if (pos.index_handle >= 0) {
      // Hash probe on the bound join key, composed from the env.
      const auto hit = mem.probe_group_canon(
          pos.index_handle, env_key_hash(pos.key_vars, env));
      if (!hit.group) return;
      if (hit.rep != kNoFactRow && pos.key_covers) {
        if (!canon_matches(store.view_row(hit.rep), hit.rep_slots,
                           pos.key_vars, env)) {
          return;
        }
        for (FactRow row : *hit.group) try_fact(row, true);
      } else {
        for (FactRow row : *hit.group) try_fact(row, false);
      }
      return;
    }
    // No join key: scan the whole memory in place (alpha memories are
    // never mutated while a join enumerates).
    for (FactRow row : mem.rows()) try_fact(row, false);
  }

  std::span<const CompiledRule> rules_;
  AlphaStore& alphas_;
  std::vector<RulePlan> plans_;
};

}  // namespace parulel
