// Quantified-CE keys: from a (not ...) / (exists ...) delta fact to the
// conflict-set instantiations it affects.
//
// When a fact enters a (not ...) alpha or leaves an (exists ...) alpha,
// the matcher must find the conflict-set instantiations it affects.
// Scanning the rule's whole instantiation list is O(|CS|) per delta fact
// — quadratic on saturation workloads. Instead every instantiation of a
// rule with quantified CEs carries, per CE, the hash of its join-key
// values (keys(), computed from its LHS environment), and the conflict
// set indexes its alive instantiations by (rule, CE, key). The affected
// set of a fact is then one probe by the same hash composed from the
// fact's slots (for_candidates()).
//
// The keys live in the instantiation's own conflict-set record and leave
// the index when it leaves the alive set, so the index holds exactly the
// alive instantiations' keys.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "match/conflict_set.hpp"
#include "match/join.hpp"

namespace parulel {

class QuantIndex {
 public:
  explicit QuantIndex(const std::vector<RulePlan>& plans) : plans_(plans) {}

  /// The quantified-CE keys of an instantiation of `rule` whose LHS
  /// environment is `env`, for ConflictSet::add: one per CE, none for a
  /// rule without quantified CEs. The span is valid until the next call.
  std::span<const std::size_t> keys(RuleId rule, std::span<const Value> env) {
    keys_.clear();
    append_keys(plans_[rule], env, keys_);
    return keys_;
  }

  /// keys() appended to a caller-owned buffer (parallel emission).
  static void append_keys(const RulePlan& plan, std::span<const Value> env,
                          std::vector<std::size_t>& out) {
    for (const PositionPlan& neg : plan.negatives) {
      out.push_back(key_of_env(neg, env));
    }
  }

  /// Visit alive instantiations of `rule` whose quantified CE `n` keys
  /// match `fact` (hash candidates; the caller still verifies
  /// fact_blocks). `fn(id)` may remove instantiations.
  template <typename Fn>
  void for_candidates(ConflictSet& cs, RuleId rule, std::size_t n,
                      const FactView& fact, Fn&& fn) const {
    cs.for_each_quant(rule, n, key_of_fact(plans_[rule].negatives[n], fact),
                      std::forward<Fn>(fn));
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

  const std::vector<RulePlan>& plans_;
  std::vector<std::size_t> keys_;  ///< keys()'s reused buffer
};

}  // namespace parulel
