#include "match/join.hpp"

#include <algorithm>

namespace parulel {
namespace {

PositionPlan plan_position(const CompiledPattern& pat, AlphaStore& alphas) {
  PositionPlan plan;
  plan.alpha = pat.alpha;
  plan.join_eqs = pat.join_eqs;
  if (!pat.join_eqs.empty()) {
    // Sort key slots for a canonical index identity; remember the env
    // variable aligned with each slot.
    std::vector<CompiledPattern::JoinEq> eqs = pat.join_eqs;
    std::sort(eqs.begin(), eqs.end(),
              [](const auto& a, const auto& b) { return a.slot < b.slot; });
    // A slot can appear twice (joined against two variables); index on
    // unique slots, keep the first variable per slot for the key and the
    // rest in join_eqs for verification.
    for (const auto& eq : eqs) {
      if (!plan.key_slots.empty() && plan.key_slots.back() == eq.slot) {
        continue;
      }
      plan.key_slots.push_back(eq.slot);
      plan.key_vars.push_back(eq.var);
    }
    plan.index_handle =
        alphas.memory(pat.alpha).ensure_index(plan.key_slots);
    plan.key_covers = plan.key_slots.size() == plan.join_eqs.size();
  }
  return plan;
}

/// All (slot, var) references of a positive pattern, in a uniform shape
/// regardless of how the source-order analyzer classified them. After
/// the analyzer's intra-pattern dedup, each variable appears at most
/// once per pattern.
std::vector<std::pair<int, VarId>> var_refs(const CompiledPattern& pat) {
  std::vector<std::pair<int, VarId>> refs;
  for (const auto& def : pat.defines) refs.emplace_back(def.slot, def.var);
  for (const auto& eq : pat.join_eqs) refs.emplace_back(eq.slot, eq.var);
  return refs;
}

/// Build the reordered derivation plan that starts at positive position
/// `fixed`: greedy join ordering (most bound-variable equalities first),
/// with alpha indexes registered for every probe step and guards pushed
/// to the earliest step where their variables are bound.
DerivePlan build_derive_plan(const CompiledRule& rule, std::size_t fixed,
                             AlphaStore& alphas) {
  struct GuardInfo {
    const CompiledExpr* expr;
    std::vector<VarId> vars;
    bool placed = false;
  };
  std::vector<GuardInfo> guard_infos;
  for (const auto& guard_list : rule.guards) {
    for (const auto& guard : guard_list) {
      GuardInfo info;
      info.expr = &guard;
      guard.collect_vars(info.vars);
      guard_infos.push_back(std::move(info));
    }
  }

  const std::size_t n = rule.positives.size();
  std::vector<bool> bound(static_cast<std::size_t>(rule.num_vars), false);
  std::vector<bool> used(n, false);

  DerivePlan plan;
  std::size_t next = fixed;
  for (std::size_t placed = 0; placed < n; ++placed) {
    if (placed > 0) {
      // Greedy: most equalities against bound variables. Ties break on
      // downstream connectivity — how many references in the remaining
      // patterns this pattern's new bindings would turn into join
      // equalities. (Example where this matters: Life's 9-way join. From
      // a neighbor cell, both the neighbor-list fact and a sibling cell
      // offer one equality, but only the neighbor-list's bindings key
      // every remaining pattern; joining the sibling first degenerates
      // to a scan of all cells of the generation.) Final tie-break:
      // source order, for determinism.
      std::size_t best = n;
      int best_eqs = -1;
      int best_downstream = -1;
      for (std::size_t q = 0; q < n; ++q) {
        if (used[q]) continue;
        int eqs = 0;
        std::vector<VarId> would_define;
        for (const auto& [slot, var] : var_refs(rule.positives[q])) {
          (void)slot;
          if (bound[static_cast<std::size_t>(var)]) {
            ++eqs;
          } else {
            would_define.push_back(var);
          }
        }
        int downstream = 0;
        for (std::size_t r = 0; r < n; ++r) {
          if (used[r] || r == q) continue;
          for (const auto& [slot, var] : var_refs(rule.positives[r])) {
            (void)slot;
            for (VarId v : would_define) {
              if (v == var) ++downstream;
            }
          }
        }
        if (eqs > best_eqs ||
            (eqs == best_eqs && downstream > best_downstream)) {
          best_eqs = eqs;
          best_downstream = downstream;
          best = q;
        }
      }
      next = best;
    }
    used[next] = true;

    DeriveStep step;
    step.pattern = static_cast<int>(next);
    step.alpha = rule.positives[next].alpha;
    for (const auto& [slot, var] : var_refs(rule.positives[next])) {
      if (bound[static_cast<std::size_t>(var)]) {
        step.eqs.push_back({slot, var});
      } else {
        step.defs.push_back({slot, var});
        bound[static_cast<std::size_t>(var)] = true;
      }
    }
    if (placed > 0 && !step.eqs.empty()) {
      // Canonical slot order for the index key.
      std::vector<CompiledPattern::JoinEq> sorted = step.eqs;
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.slot < b.slot; });
      for (const auto& eq : sorted) {
        if (!step.key_slots.empty() && step.key_slots.back() == eq.slot) {
          continue;
        }
        step.key_slots.push_back(eq.slot);
        step.key_vars.push_back(eq.var);
      }
      step.index_handle =
          alphas.memory(step.alpha).ensure_index(step.key_slots);
      step.key_covers = step.key_slots.size() == step.eqs.size();
    }
    for (auto& info : guard_infos) {
      if (info.placed) continue;
      bool ready = true;
      for (VarId v : info.vars) {
        if (!bound[static_cast<std::size_t>(v)]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        step.guards.push_back(info.expr);
        info.placed = true;
      }
    }
    plan.steps.push_back(std::move(step));
  }
  // The seeding order of a fact across positions is (alpha id,
  // position), matching the matchers' alpha-then-use walk.
  const DeriveStep& seed = plan.steps.front();
  for (DeriveStep& step : plan.steps) {
    step.seeded_earlier = step.alpha != seed.alpha
                              ? step.alpha < seed.alpha
                              : step.pattern < seed.pattern;
  }
  return plan;
}

}  // namespace

std::vector<RulePlan> build_join_plans(std::span<const CompiledRule> rules,
                                       AlphaStore& alphas) {
  std::vector<RulePlan> plans;
  plans.reserve(rules.size());
  for (const auto& rule : rules) {
    RulePlan plan;
    for (const auto& pat : rule.positives) {
      plan.positives.push_back(plan_position(pat, alphas));
    }
    for (const auto& pat : rule.negatives) {
      plan.negatives.push_back(plan_position(pat, alphas));
    }

    plan.def_position.assign(static_cast<std::size_t>(rule.num_lhs_vars),
                             -1);
    for (std::size_t p = 0; p < rule.positives.size(); ++p) {
      for (const auto& def : rule.positives[p].defines) {
        plan.def_position[static_cast<std::size_t>(def.var)] =
            static_cast<int>(p);
      }
    }

    // Negative-retract fast paths: pin the negated CE's join variables
    // to the vanished blocker's values, and index position 0 on whatever
    // pinned variables it defines.
    for (std::size_t n = 0; n < rule.negatives.size(); ++n) {
      NegRematchPlan rp;
      for (const auto& eq : rule.negatives[n].join_eqs) {
        rp.pins.push_back({eq.var, eq.slot});
      }
      // Dedup pins per var (a var joined on two slots pins twice; one
      // suffices for the DFS, both values are equal by join semantics).
      std::sort(rp.pins.begin(), rp.pins.end(),
                [](const auto& a, const auto& b) { return a.var < b.var; });
      rp.pins.erase(std::unique(rp.pins.begin(), rp.pins.end(),
                                [](const auto& a, const auto& b) {
                                  return a.var == b.var;
                                }),
                    rp.pins.end());

      const CompiledPattern& pos0 = rule.positives[0];
      for (const auto& def : pos0.defines) {
        for (const auto& pin : rp.pins) {
          if (pin.var == def.var) {
            rp.pos0_slots.push_back(def.slot);
            rp.pos0_vars.push_back(def.var);
          }
        }
      }
      if (!rp.pos0_slots.empty()) {
        // Canonical slot order, vars aligned.
        std::vector<std::size_t> order(rp.pos0_slots.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    return rp.pos0_slots[a] < rp.pos0_slots[b];
                  });
        std::vector<int> slots;
        std::vector<VarId> vars;
        for (std::size_t i : order) {
          if (!slots.empty() && slots.back() == rp.pos0_slots[i]) continue;
          slots.push_back(rp.pos0_slots[i]);
          vars.push_back(rp.pos0_vars[i]);
        }
        rp.pos0_slots = std::move(slots);
        rp.pos0_vars = std::move(vars);
        rp.index_handle =
            alphas.memory(pos0.alpha).ensure_index(rp.pos0_slots);
      }
      plan.neg_rematch.push_back(std::move(rp));
    }

    for (std::size_t p = 0; p < rule.positives.size(); ++p) {
      plan.derive.push_back(build_derive_plan(rule, p, alphas));
    }

    plans.push_back(std::move(plan));
  }
  return plans;
}

bool JoinEngine::fact_blocks(const FactView& fact, const PositionPlan& neg,
                             std::span<const Value> env) {
  for (const auto& eq : neg.join_eqs) {
    if (fact.slot(static_cast<std::size_t>(eq.slot)) !=
        env[static_cast<std::size_t>(eq.var)]) {
      return false;
    }
  }
  return true;
}

bool JoinEngine::quantified_satisfied(const WorkingMemory& wm,
                                      const PositionPlan& neg,
                                      std::span<const Value> env) const {
  const AlphaMemory& mem = alphas_.memory(neg.alpha);
  if (neg.join_eqs.empty()) return mem.size() > 0;
  const FactStore& store = wm.store();
  if (neg.index_handle >= 0) {
    const auto hit = mem.probe_group_canon(
        neg.index_handle, env_key_hash(neg.key_vars, env));
    if (!hit.group) return false;
    if (hit.rep != kNoFactRow && neg.key_covers) {
      // Canonical key decides the whole (non-empty) group at once.
      return canon_matches(store.view_row(hit.rep), hit.rep_slots,
                           neg.key_vars, env);
    }
    for (FactRow row : *hit.group) {
      if (fact_blocks(store.view_row(row), neg, env)) return true;
    }
    return false;
  }
  for (FactRow row : mem.rows()) {
    if (fact_blocks(store.view_row(row), neg, env)) return true;
  }
  return false;
}

bool JoinEngine::negatives_ok(const WorkingMemory& wm,
                              const CompiledRule& rule, const RulePlan& plan,
                              std::span<const Value> env) const {
  for (std::size_t n = 0; n < rule.negatives.size(); ++n) {
    const bool found = quantified_satisfied(wm, plan.negatives[n], env);
    // (not ...) requires none; (exists ...) requires at least one.
    if (found != rule.negatives[n].exists) return false;
  }
  return true;
}

}  // namespace parulel
