// Index from quantified-CE join keys to instantiations.
//
// When a fact enters a (not ...) alpha or leaves an (exists ...) alpha,
// the matcher must find the conflict-set instantiations it affects.
// Scanning the rule's whole instantiation list is O(|CS|) per delta fact
// — quadratic on saturation workloads. This index maps, per (rule,
// quantified CE), the hash of an instantiation's join-key values to the
// instantiation, so the affected set is a hash probe.
//
// Entries are append-only and lazily pruned: probes skip (and erase)
// instantiations the conflict set no longer holds alive, so the matcher
// never needs removal hooks.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "match/conflict_set.hpp"
#include "match/join.hpp"

namespace parulel {

class QuantIndex {
 public:
  QuantIndex(std::span<const CompiledRule> rules,
             const std::vector<RulePlan>& plans)
      : rules_(rules), plans_(plans) {
    maps_.resize(rules.size());
    for (std::size_t r = 0; r < rules.size(); ++r) {
      maps_[r].resize(rules[r].negatives.size());
    }
  }

  /// Register a freshly added instantiation under every quantified CE's
  /// key. `env` is the instantiation's LHS environment.
  void add(RuleId rule, InstId id, std::span<const Value> env) {
    const RulePlan& plan = plans_[rule];
    for (std::size_t n = 0; n < plan.negatives.size(); ++n) {
      maps_[rule][n].emplace(key_of_env(plan.negatives[n], env), id);
    }
  }

  /// Visit alive instantiations of `rule` whose quantified CE `n` keys
  /// match `fact` (hash candidates; the caller still verifies
  /// fact_blocks). Dead entries are pruned in passing.
  template <typename Fn>
  void for_candidates(const ConflictSet& cs, RuleId rule, std::size_t n,
                      const FactView& fact, Fn&& fn) {
    auto& map = maps_[rule][n];
    const std::size_t key = key_of_fact(plans_[rule].negatives[n], fact);
    auto [lo, hi] = map.equal_range(key);
    for (auto it = lo; it != hi;) {
      if (!cs.alive(it->second)) {
        it = map.erase(it);
        continue;
      }
      fn(it->second);
      ++it;
    }
  }

  /// Drop every entry. Maps that were never filled are skipped, so a
  /// rule level without quantified enumerated rules clears in O(rules).
  void clear() {
    for (auto& per_rule : maps_) {
      for (auto& map : per_rule) {
        if (!map.empty()) map.clear();
      }
    }
  }

  std::size_t entries() const {
    std::size_t total = 0;
    for (const auto& per_rule : maps_) {
      for (const auto& map : per_rule) total += map.size();
    }
    return total;
  }

 private:
  static std::size_t key_of_env(const PositionPlan& neg,
                                std::span<const Value> env) {
    std::size_t h = 0x2545f4914f6cdd1dULL;
    for (VarId v : neg.key_vars) {
      h = hash_combine(h, env[static_cast<std::size_t>(v)].hash());
    }
    return h;
  }

  static std::size_t key_of_fact(const PositionPlan& neg,
                                 const FactView& fact) {
    std::size_t h = 0x2545f4914f6cdd1dULL;
    for (int s : neg.key_slots) {
      // Cached per-slot hash from the store (same value as .hash()).
      h = hash_combine(h, fact.slot_hash(static_cast<std::size_t>(s)));
    }
    return h;
  }

  std::span<const CompiledRule> rules_;
  const std::vector<RulePlan>& plans_;
  // maps_[rule][neg]: key hash -> inst id (possibly stale; pruned lazily).
  std::vector<std::vector<std::unordered_multimap<std::size_t, InstId>>>
      maps_;
};

}  // namespace parulel
