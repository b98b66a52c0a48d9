#include "match/rete.hpp"

#include <algorithm>
#include <cassert>

namespace parulel {

ReteMatcher::TokenId ReteMatcher::BetaMemory::insert(Token token) {
  TokenId id;
  token.alive = true;
  if (!free_list.empty()) {
    id = free_list.back();
    free_list.pop_back();
    tokens[id] = std::move(token);
  } else {
    id = static_cast<TokenId>(tokens.size());
    tokens.push_back(std::move(token));
  }
  for (FactId f : tokens[id].facts) by_fact.emplace(f, id);
  ++alive_count;
  return id;
}

void ReteMatcher::BetaMemory::erase(TokenId id) {
  Token& token = tokens[id];
  assert(token.alive);
  for (FactId f : token.facts) {
    auto [lo, hi] = by_fact.equal_range(f);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == id) {
        by_fact.erase(it);
        break;
      }
    }
  }
  if (token.key_hash != kNoKey) {
    auto [lo, hi] = by_key.equal_range(token.key_hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == id) {
        by_key.erase(it);
        break;
      }
    }
  }
  token.alive = false;
  token.facts.clear();
  token.env.clear();
  token.neg_counts.clear();
  token.neg_keys.clear();
  token.key_hash = kNoKey;
  free_list.push_back(id);
  --alive_count;
}

ReteMatcher::ReteMatcher(std::span<const CompiledRule> rules,
                         std::span<const AlphaSpec> alpha_specs,
                         std::size_t template_count)
    : rules_(rules),
      alphas_(alpha_specs, template_count),
      positive_uses_(alpha_specs.size()),
      negative_uses_(alpha_specs.size()) {
  // Register alpha join indexes exactly as the TREAT planner does.
  plans_ = build_join_plans(rules, alphas_);

  nets_.resize(rules_.size());
  for (RuleId r = 0; r < rules_.size(); ++r) {
    const CompiledRule& rule = rules_[r];
    nets_[r].memories.resize(rule.positives.size());
    nets_[r].has_negatives = !rule.negatives.empty();
    for (std::size_t p = 0; p < rule.positives.size(); ++p) {
      positive_uses_[rule.positives[p].alpha].push_back(
          {r, static_cast<int>(p)});
    }
    for (std::size_t n = 0; n < rule.negatives.size(); ++n) {
      negative_uses_[rule.negatives[n].alpha].push_back(
          {r, static_cast<int>(n)});
    }
  }
}

std::size_t ReteMatcher::token_count() const {
  std::size_t n = 0;
  for (const auto& net : nets_) {
    for (const auto& mem : net.memories) n += mem.alive_count;
    n += net.gate.alive_count;
  }
  return n;
}

std::size_t ReteMatcher::left_key_hash(RuleId rule, std::size_t consumer_pos,
                                       std::span<const Value> env) const {
  const PositionPlan& plan = plans_[rule].positives[consumer_pos];
  std::size_t h = 0x2545f4914f6cdd1dULL;
  for (VarId v : plan.key_vars) {
    h = hash_combine(h, env[static_cast<std::size_t>(v)].hash());
  }
  return h;
}

std::size_t ReteMatcher::right_key_hash(RuleId rule, std::size_t consumer_pos,
                                        const FactView& fact) const {
  const PositionPlan& plan = plans_[rule].positives[consumer_pos];
  std::size_t h = 0x2545f4914f6cdd1dULL;
  for (int s : plan.key_slots) {
    // Cached per-slot hash from the store (same value as .hash()).
    h = hash_combine(h, fact.slot_hash(static_cast<std::size_t>(s)));
  }
  return h;
}

std::size_t ReteMatcher::neg_key_hash_env(RuleId rule, std::size_t n,
                                          std::span<const Value> env) const {
  const PositionPlan& plan = plans_[rule].negatives[n];
  std::size_t h = 0x2545f4914f6cdd1dULL;
  for (VarId v : plan.key_vars) {
    h = hash_combine(h, env[static_cast<std::size_t>(v)].hash());
  }
  return h;
}

std::size_t ReteMatcher::neg_key_hash_fact(RuleId rule, std::size_t n,
                                           const FactView& fact) const {
  const PositionPlan& plan = plans_[rule].negatives[n];
  std::size_t h = 0x2545f4914f6cdd1dULL;
  for (int s : plan.key_slots) {
    h = hash_combine(h, fact.slot_hash(static_cast<std::size_t>(s)));
  }
  return h;
}

void ReteMatcher::production_add(RuleId rule, const Token& token) {
  if (cs_.add(rule, token.facts) != kInvalidInst) {
    ++stats_.insts_derived;
  } else {
    ++stats_.derive_rejects;
  }
}

void ReteMatcher::production_remove(RuleId rule, const Token& token) {
  if (cs_.remove_by_key(rule, token.facts)) ++stats_.insts_invalidated;
}

void ReteMatcher::arrive_at_gate(const WorkingMemory& wm, RuleId rule,
                                 Token token) {
  const CompiledRule& r = rules_[rule];
  RuleNet& net = nets_[rule];
  if (!net.has_negatives) {
    production_add(rule, token);
    return;
  }

  token.neg_counts.assign(r.negatives.size(), 0);
  token.blocked = 0;
  for (std::size_t n = 0; n < r.negatives.size(); ++n) {
    const PositionPlan& neg = plans_[rule].negatives[n];
    const AlphaMemory& mem = alphas_.memory(neg.alpha);
    const FactStore& store = wm.store();
    int count = 0;
    if (neg.index_handle >= 0) {
      if (const AlphaMemory::Group* g = mem.probe_group(
              neg.index_handle, neg_key_hash_env(rule, n, token.env))) {
        for (FactRow row : *g) {
          if (JoinEngine::fact_blocks(store.view_row(row), neg, token.env)) {
            ++count;
          }
        }
      }
    } else {
      for (FactRow row : mem.rows()) {
        if (JoinEngine::fact_blocks(store.view_row(row), neg, token.env)) {
          ++count;
        }
      }
    }
    token.neg_counts[n] = count;
    // (not ...): any match blocks. (exists ...): no match blocks.
    const bool blocks =
        r.negatives[n].exists ? (count == 0) : (count > 0);
    if (blocks) ++token.blocked;
  }

  const bool pass = token.blocked == 0;
  // Index the gate token under each negative's key before storing.
  token.neg_keys.resize(r.negatives.size());
  for (std::size_t n = 0; n < r.negatives.size(); ++n) {
    token.neg_keys[n] = neg_key_hash_env(rule, n, token.env);
  }
  if (net.gate_neg_index.empty()) {
    net.gate_neg_index.resize(r.negatives.size());
  }
  const TokenId id = net.gate.insert(std::move(token));
  for (std::size_t n = 0; n < r.negatives.size(); ++n) {
    net.gate_neg_index[n].emplace(net.gate.tokens[id].neg_keys[n], id);
  }
  ++stats_.tokens_created;
  if (pass) production_add(rule, net.gate.tokens[id]);
}

void ReteMatcher::gate_neg_assert(RuleId rule, std::size_t n,
                                  const FactView& fact) {
  RuleNet& net = nets_[rule];
  if (net.gate_neg_index.empty()) return;
  const PositionPlan& neg = plans_[rule].negatives[n];
  const bool exists = rules_[rule].negatives[n].exists;
  const std::size_t key = neg_key_hash_fact(rule, n, fact);
  auto [lo, hi] = net.gate_neg_index[n].equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    Token& token = net.gate.tokens[it->second];
    if (!token.alive) continue;
    if (!JoinEngine::fact_blocks(fact, neg, token.env)) continue;
    if (token.neg_counts[n]++ == 0) {
      // Count transition 0 -> 1: (not ...) starts blocking, an
      // (exists ...) stops blocking.
      if (exists) {
        if (--token.blocked == 0) production_add(rule, token);
      } else {
        if (token.blocked++ == 0) production_remove(rule, token);
      }
    }
  }
}

void ReteMatcher::gate_neg_retract(RuleId rule, std::size_t n,
                                   const FactView& fact) {
  RuleNet& net = nets_[rule];
  if (net.gate_neg_index.empty()) return;
  const PositionPlan& neg = plans_[rule].negatives[n];
  const bool exists = rules_[rule].negatives[n].exists;
  const std::size_t key = neg_key_hash_fact(rule, n, fact);
  auto [lo, hi] = net.gate_neg_index[n].equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    Token& token = net.gate.tokens[it->second];
    if (!token.alive) continue;
    if (!JoinEngine::fact_blocks(fact, neg, token.env)) continue;
    if (--token.neg_counts[n] == 0) {
      // Count transition 1 -> 0: a (not ...) stops blocking, an
      // (exists ...) starts blocking.
      if (exists) {
        if (token.blocked++ == 0) production_remove(rule, token);
      } else {
        if (--token.blocked == 0) production_add(rule, token);
      }
    }
  }
}

void ReteMatcher::emit_token(const WorkingMemory& wm, RuleId rule,
                             std::size_t p, Token token) {
  const CompiledRule& r = rules_[rule];
  RuleNet& net = nets_[rule];
  const std::size_t n_pos = r.positives.size();

  if (p + 1 < n_pos) {
    // Store keyed for the downstream join.
    const std::size_t key = left_key_hash(rule, p + 1, token.env);
    token.key_hash = key;
    const std::vector<Value> env = token.env;  // cascade reads a copy
    const std::vector<FactId> facts = token.facts;
    const TokenId id = net.memories[p].insert(std::move(token));
    net.memories[p].by_key.emplace(key, id);
    ++stats_.tokens_created;

    // Left activation of join p+1: probe the alpha memory.
    const CompiledPattern& next_pat = r.positives[p + 1];
    const PositionPlan& next_plan = plans_[rule].positives[p + 1];
    const AlphaMemory& mem = alphas_.memory(next_plan.alpha);
    const FactStore& store = wm.store();
    auto right_join = [&](FactRow row) {
      const FactView fact = store.view_row(row);
      for (const auto& eq : next_plan.join_eqs) {
        if (fact.slot(static_cast<std::size_t>(eq.slot)) !=
            env[static_cast<std::size_t>(eq.var)]) {
          return;
        }
      }
      Token child;
      child.facts = facts;
      child.facts.push_back(fact.id());
      child.env = env;
      for (const auto& def : next_pat.defines) {
        child.env[static_cast<std::size_t>(def.var)] =
            fact.slot(static_cast<std::size_t>(def.slot));
      }
      for (const auto& guard : r.guards[p + 1]) {
        if (!CompiledExpr::truthy(guard.eval(child.env))) return;
      }
      emit_token(wm, rule, p + 1, std::move(child));
    };
    if (next_plan.index_handle >= 0) {
      // Candidate rows are copied out first: the cascade recurses into
      // emit_token, so keep iteration independent of index storage.
      std::vector<FactRow> candidates;
      mem.probe_hash(next_plan.index_handle,
                     left_key_hash(rule, p + 1, env), candidates);
      for (FactRow row : candidates) right_join(row);
    } else {
      const std::vector<FactRow> candidates = mem.rows();
      for (FactRow row : candidates) right_join(row);
    }
    return;
  }

  // Full positive match: store in the last memory (for retraction
  // bookkeeping) and pass to the gate / production.
  const TokenId id = net.memories[p].insert(token);
  (void)id;
  ++stats_.tokens_created;
  arrive_at_gate(wm, rule, std::move(token));
}

void ReteMatcher::assert_one(const WorkingMemory& wm, const FactView& fact) {
  alphas_.matching_alphas(fact, scratch_alphas_);
  stats_.alpha_activations += scratch_alphas_.size();
  const std::vector<std::uint32_t> hit(scratch_alphas_);

  // Insert into alpha memories first so cascades below see the fact.
  for (std::uint32_t a : hit) alphas_.memory(a).insert(fact);

  // Update pre-existing gate tokens before any new tokens arrive (new
  // arrivals count this fact from the alpha memory directly).
  for (std::uint32_t a : hit) {
    for (const AlphaUse& use : negative_uses_[a]) {
      gate_neg_assert(use.rule, static_cast<std::size_t>(use.position), fact);
    }
  }

  // Right activations. Per rule, process higher positions first: the
  // p-th activation must not see tokens this same fact just created at
  // lower positions (those cascades already join against the alpha
  // memory, which contains the fact).
  std::vector<AlphaUse> uses;
  for (std::uint32_t a : hit) {
    uses.insert(uses.end(), positive_uses_[a].begin(),
                positive_uses_[a].end());
  }
  std::sort(uses.begin(), uses.end(), [](const AlphaUse& x, const AlphaUse& y) {
    if (x.rule != y.rule) return x.rule < y.rule;
    return x.position > y.position;
  });

  for (const AlphaUse& use : uses) {
    const RuleId rule = use.rule;
    const std::size_t p = static_cast<std::size_t>(use.position);
    const CompiledRule& r = rules_[rule];
    const CompiledPattern& pat = r.positives[p];
    const PositionPlan& plan = plans_[rule].positives[p];

    if (p == 0) {
      Token token;
      token.facts = {fact.id()};
      token.env.assign(static_cast<std::size_t>(r.num_vars), Value{});
      for (const auto& def : pat.defines) {
        token.env[static_cast<std::size_t>(def.var)] =
            fact.slot(static_cast<std::size_t>(def.slot));
      }
      bool ok = true;
      for (const auto& guard : r.guards[0]) {
        if (!CompiledExpr::truthy(guard.eval(token.env))) {
          ok = false;
          break;
        }
      }
      if (ok) emit_token(wm, rule, 0, std::move(token));
      continue;
    }

    // Probe the left memory by this fact's join key.
    BetaMemory& left = nets_[rule].memories[p - 1];
    const std::size_t key = right_key_hash(rule, p, fact);
    // Collect ids first: emit_token may grow the memory's containers.
    std::vector<TokenId> matches;
    auto [lo, hiit] = left.by_key.equal_range(key);
    for (auto it = lo; it != hiit; ++it) matches.push_back(it->second);

    for (TokenId tid : matches) {
      const Token& parent = left.tokens[tid];
      if (!parent.alive) continue;
      bool ok = true;
      for (const auto& eq : plan.join_eqs) {
        if (fact.slot(static_cast<std::size_t>(eq.slot)) !=
            parent.env[static_cast<std::size_t>(eq.var)]) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      Token child;
      child.facts = parent.facts;
      child.facts.push_back(fact.id());
      child.env = parent.env;
      for (const auto& def : pat.defines) {
        child.env[static_cast<std::size_t>(def.var)] =
            fact.slot(static_cast<std::size_t>(def.slot));
      }
      ok = true;
      for (const auto& guard : r.guards[p]) {
        if (!CompiledExpr::truthy(guard.eval(child.env))) {
          ok = false;
          break;
        }
      }
      if (ok) emit_token(wm, rule, p, std::move(child));
    }
  }
}

void ReteMatcher::retract_one(const WorkingMemory& /*wm*/,
                              const FactView& fact) {
  alphas_.matching_alphas(fact, scratch_alphas_);
  stats_.alpha_activations += scratch_alphas_.size();
  const std::vector<std::uint32_t> hit(scratch_alphas_);

  // Unblock gate tokens first (the fact leaves negated alphas).
  for (std::uint32_t a : hit) {
    for (const AlphaUse& use : negative_uses_[a]) {
      gate_neg_retract(use.rule, static_cast<std::size_t>(use.position),
                       fact);
    }
  }

  for (std::uint32_t a : hit) alphas_.memory(a).erase(fact);

  // Remove every token containing the fact, in every memory and gate.
  for (RuleId rule = 0; rule < nets_.size(); ++rule) {
    RuleNet& net = nets_[rule];
    auto purge = [&](BetaMemory& mem, bool is_gate) {
      std::vector<TokenId> doomed;
      auto [lo, hiit] = mem.by_fact.equal_range(fact.id());
      for (auto it = lo; it != hiit; ++it) doomed.push_back(it->second);
      for (TokenId id : doomed) {
        Token& token = mem.tokens[id];
        if (!token.alive) continue;
        if (is_gate) {
          for (std::size_t n = 0; n < token.neg_keys.size(); ++n) {
            auto [klo, khi] = net.gate_neg_index[n].equal_range(
                token.neg_keys[n]);
            for (auto kit = klo; kit != khi; ++kit) {
              if (kit->second == id) {
                net.gate_neg_index[n].erase(kit);
                break;
              }
            }
          }
        }
        mem.erase(id);
        ++stats_.tokens_deleted;
      }
    };
    for (auto& mem : net.memories) purge(mem, false);
    purge(net.gate, true);
  }

  // Conflict-set entries containing the fact die with it.
  stats_.insts_invalidated += cs_.remove_by_fact(fact.id());
}

void ReteMatcher::apply_delta(const WorkingMemory& wm, const Delta& delta) {
  check_fact_ids(delta);
  ++stats_.deltas_processed;
  for (FactId fid : delta.removed) retract_one(wm, wm.view(fid));
  for (FactId fid : delta.added) assert_one(wm, wm.view(fid));
  stats_.state_entries = token_count();
}

}  // namespace parulel
