#include "compile/vm.hpp"

#include <algorithm>
#include <chrono>

#include "compile/compiler.hpp"

// Threaded-code dispatch: GCC and Clang get computed goto (one indirect
// branch per handler, which the branch predictor learns per-site);
// other compilers fall back to a switch in a loop.
#if defined(__GNUC__) || defined(__clang__)
#define PARULEL_VM_COMPUTED_GOTO 1
#else
#define PARULEL_VM_COMPUTED_GOTO 0
#endif

namespace parulel {

CompiledMatcher::CompiledMatcher(std::span<const CompiledRule> rules,
                                 std::span<const AlphaSpec> alpha_specs,
                                 std::size_t template_count)
    : rules_(rules),
      alphas_(alpha_specs, template_count),
      join_(rules, alphas_),
      quant_(join_.plans()),
      positive_uses_(alpha_specs.size()),
      negative_uses_(alpha_specs.size()) {
  image_ = compile_rules(rules, alpha_specs, template_count, join_.plans(),
                         &cstats_);
  for (RuleId r = 0; r < rules_.size(); ++r) {
    const CompiledRule& rule = rules_[r];
    for (std::size_t p = 0; p < rule.positives.size(); ++p) {
      positive_uses_[rule.positives[p].alpha].push_back(
          {r, static_cast<int>(p)});
    }
    for (std::size_t n = 0; n < rule.negatives.size(); ++n) {
      negative_uses_[rule.negatives[n].alpha].push_back(
          {r, static_cast<int>(n)});
    }
  }
  env_.resize(static_cast<std::size_t>(image_.env_size));
  env_hash_.resize(static_cast<std::size_t>(image_.env_size), 0);
  facts_.resize(static_cast<std::size_t>(image_.max_positives), kInvalidFact);
  frames_.resize(static_cast<std::size_t>(image_.max_levels));
  net_out_.reserve(alpha_specs.size());
}

void CompiledMatcher::run_net(const WorkingMemory& wm, FactId fid) {
  net_out_.clear();
  ++cstats_.net_runs;
  const std::int32_t entry =
      image_.net_entry[static_cast<std::size_t>(wm.view(fid).tmpl())];
  if (entry < 0) return;
  execute(wm, entry, fid);
  // The trie emits in traversal order; callers expect the interpreter's
  // ascending-alpha order.
  std::sort(net_out_.begin(), net_out_.end());
}

bool CompiledMatcher::quant_found(const WorkingMemory& wm,
                                  const QuantCheck& q) {
  ++cstats_.quant_checks;
  const AlphaMemory& mem = alphas_.memory(q.alpha);
  if (q.eq_count == 0) return mem.size() > 0;
  const EqRef* eqs = image_.eqs.data() + q.eq_offset;
  const FactStore& store = wm.store();
  auto matches = [&](FactRow row) {
    const FactView f = store.view_row(row);
    for (std::uint32_t i = 0; i < q.eq_count; ++i) {
      if (f.slot(static_cast<std::size_t>(eqs[i].slot)) !=
          env_[static_cast<std::size_t>(eqs[i].reg)]) {
        return false;
      }
    }
    return true;
  };
  if (q.index_handle >= 0) {
    const std::int32_t* regs = image_.key_regs.data() + q.key_offset;
    std::size_t h = kJoinKeySeed;
    for (std::uint32_t i = 0; i < q.key_count; ++i) {
      h = hash_combine(h, env_hash_[static_cast<std::size_t>(regs[i])]);
    }
    const AlphaMemory::ProbeHit hit = mem.probe_group_canon(q.index_handle, h);
    if (!hit.group || hit.group->empty()) return false;
    if (hit.rep != kNoFactRow && q.eq_count == q.key_count) {
      // Full key coverage over a pure group: one canonical-key
      // comparison against the representative answers the check for
      // every candidate at once.
      const FactView rep = store.view_row(hit.rep);
      for (std::uint32_t i = 0; i < q.key_count; ++i) {
        if (rep.slot(static_cast<std::size_t>(hit.rep_slots[i])) !=
            env_[static_cast<std::size_t>(regs[i])]) {
          return false;
        }
      }
      return true;
    }
    for (FactRow row : *hit.group) {
      if (matches(row)) return true;
    }
    return false;
  }
  for (FactRow row : mem.rows()) {
    if (matches(row)) return true;
  }
  return false;
}

void CompiledMatcher::do_emit(std::int32_t rule_operand) {
  const auto rule = static_cast<RuleId>(rule_operand);
  const CompiledRule& r = rules_[rule];
  const InstId id = cs_.add(
      rule, std::span<const FactId>(facts_.data(), r.positives.size()),
      quant_.keys(rule, std::span<const Value>(
                            env_.data(), static_cast<std::size_t>(r.num_vars))));
  ++cstats_.emits;
  if (id == kInvalidInst) {
    ++stats_.derive_rejects;
  } else {
    ++stats_.insts_derived;
  }
}

void CompiledMatcher::execute(const WorkingMemory& wm, std::int32_t entry,
                              FactId pivot) {
  const Instr* const code = image_.code.data();
  const Value* const consts = image_.consts.data();
  // Column base pointers, stable for the whole program: execute() never
  // mutates working memory, and matchers never assert.
  const FactStore& store = wm.store();
  const std::uint32_t* const sb = store.slot_begin_data();
  const std::uint8_t* const kp = store.kind_data();
  const std::uint64_t* const pp = store.payload_data();
  const FactId* const ids = store.id_data();
  // Load slot `i` of the fact whose arena offset is `off`.
  const auto slot_val = [&](std::uint32_t off, std::int32_t i) {
    const std::uint32_t o = off + static_cast<std::uint32_t>(i);
    return Value::from_raw(static_cast<ValueKind>(kp[o]), pp[o]);
  };
  const FactRow prow = store.row_of(pivot);
  const std::uint32_t pivo = sb[prow];  // pivot's arena offset
  std::int32_t pc = entry;
  std::uint32_t curo = pivo;  // current fact's arena offset
  std::uint64_t ndisp = 0;

#if PARULEL_VM_COMPUTED_GOTO
  // Order must match the OpCode enum exactly.
  static const void* const kLabels[kOpCount] = {
      &&L_TestConst, &&L_TestIntra, &&L_EmitAlpha, &&L_IterFixed,
      &&L_IterScan,  &&L_IterProbe, &&L_Next,      &&L_NextVerify,
      &&L_TestEq,    &&L_Bind,      &&L_Guard,     &&L_GuardCmp,
      &&L_PinLoad,   &&L_PinTest,   &&L_Quant,     &&L_Emit,
      &&L_Halt};
#define VM_CASE(op) L_##op:
#define VM_NEXT()                                                   \
  do {                                                              \
    ++ndisp;                                                        \
    goto* kLabels[static_cast<std::size_t>(code[pc].op)];           \
  } while (0)
  VM_NEXT();
#else
#define VM_CASE(op) case OpCode::op:
#define VM_NEXT() break
  for (;;) {
    ++ndisp;
    switch (code[pc].op) {
#endif

  VM_CASE(TestConst) {
    const Instr& in = code[pc];
    pc = slot_val(curo, in.a) == consts[in.b] ? pc + 1 : in.c;
  }
  VM_NEXT();

  VM_CASE(TestIntra) {
    const Instr& in = code[pc];
    pc = slot_val(curo, in.a) == slot_val(curo, in.b) ? pc + 1 : in.c;
  }
  VM_NEXT();

  VM_CASE(EmitAlpha) {
    net_out_.push_back(static_cast<std::uint32_t>(code[pc].a));
    ++pc;
  }
  VM_NEXT();

  VM_CASE(IterFixed) {
    Frame& f = frames_[static_cast<std::size_t>(code[pc].a)];
    fixed_[0] = prow;
    f.data = fixed_;
    f.size = 1;
    f.idx = 0;
    f.verified = false;
    ++pc;
  }
  VM_NEXT();

  VM_CASE(IterScan) {
    const Instr& in = code[pc];
    const std::vector<FactRow>& rows =
        alphas_.memory(static_cast<std::uint32_t>(in.b)).rows();
    Frame& f = frames_[static_cast<std::size_t>(in.a)];
    f.data = rows.data();
    f.size = rows.size();
    f.idx = 0;
    f.verified = false;
    ++pc;
  }
  VM_NEXT();

  VM_CASE(IterProbe) {
    const Instr& in = code[pc];
    const AlphaMemory& mem = alphas_.memory(static_cast<std::uint32_t>(in.b));
    const KeyList& kl = image_.key_lists[static_cast<std::size_t>(in.d)];
    // Compose the key hash from the per-register cache (no Value::hash,
    // no key copy), then iterate the index group in place (no candidate
    // copy). The group is stable for the whole program: execute() never
    // mutates alpha memories.
    const std::int32_t* regs = image_.key_regs.data() + kl.offset;
    std::size_t h = kJoinKeySeed;
    for (std::uint32_t i = 0; i < kl.count; ++i) {
      h = hash_combine(h, env_hash_[static_cast<std::size_t>(regs[i])]);
    }
    Frame& f = frames_[static_cast<std::size_t>(in.a)];
    f.idx = 0;
    f.verified = false;
    const AlphaMemory::ProbeHit hit = mem.probe_group_canon(in.c, h);
    if (hit.group) {
      f.data = hit.group->data();
      f.size = hit.group->size();
      if (kl.full && hit.rep != kNoFactRow) {
        // Canonical-key verification: every member of a pure group
        // shares its key-slot values, so one comparison of the
        // representative against the probe key decides all candidates —
        // a match lets NextVerify skip its per-candidate eq loop, a
        // mismatch (necessarily a hash collision) means no candidate
        // can pass.
        f.verified = true;
        const std::uint32_t ro = sb[hit.rep];
        for (std::uint32_t i = 0; i < kl.count; ++i) {
          if (slot_val(ro, hit.rep_slots[i]) !=
              env_[static_cast<std::size_t>(regs[i])]) {
            f.size = 0;
            break;
          }
        }
      }
    } else {
      f.data = nullptr;
      f.size = 0;
    }
    ++pc;
  }
  VM_NEXT();

  VM_CASE(Next) {
    const Instr& in = code[pc];
    Frame& f = frames_[static_cast<std::size_t>(in.a)];
    if (f.idx == f.size) {
      pc = in.b;
    } else {
      const FactRow row = f.data[f.idx++];
      curo = sb[row];
      facts_[static_cast<std::size_t>(in.c)] = ids[row];
      ++pc;
    }
  }
  VM_NEXT();

  VM_CASE(NextVerify) {
    const Instr& in = code[pc];
    Frame& f = frames_[static_cast<std::size_t>(in.a)];
    if (f.verified) {
      // The probe's canonical-key match already proved every candidate
      // passes the eq list: degrade to a plain Next.
      if (f.idx == f.size) {
        pc = in.b;
      } else {
        const FactRow row = f.data[f.idx++];
        curo = sb[row];
        facts_[static_cast<std::size_t>(in.c)] = ids[row];
        ++pc;
      }
    } else {
      const KeyList& el = image_.eq_lists[static_cast<std::size_t>(in.d)];
      const EqRef* const eqs = image_.eqs.data() + el.offset;
      // The fused join inner loop: rejected candidates stay inside the
      // handler, costing slot compares but no dispatch.
      for (;;) {
        if (f.idx == f.size) {
          pc = in.b;
          break;
        }
        const FactRow row = f.data[f.idx++];
        const std::uint32_t co = sb[row];
        bool ok = true;
        for (std::uint32_t i = 0; i < el.count; ++i) {
          if (slot_val(co, eqs[i].slot) !=
              env_[static_cast<std::size_t>(eqs[i].reg)]) {
            ok = false;
            break;
          }
        }
        if (ok) {
          curo = co;
          facts_[static_cast<std::size_t>(in.c)] = ids[row];
          ++pc;
          break;
        }
      }
    }
  }
  VM_NEXT();

  VM_CASE(TestEq) {
    const Instr& in = code[pc];
    pc = slot_val(curo, in.a) == env_[static_cast<std::size_t>(in.b)]
             ? pc + 1
             : in.c;
  }
  VM_NEXT();

  VM_CASE(Bind) {
    const Instr& in = code[pc];
    const Value v = slot_val(curo, in.a);
    env_[static_cast<std::size_t>(in.b)] = v;
    if (in.c) {
      // Cached hash from the store's hash column (computed at assert).
      env_hash_[static_cast<std::size_t>(in.b)] =
          store.slot_hash_at(curo + static_cast<std::uint32_t>(in.a));
    }
    ++pc;
  }
  VM_NEXT();

  VM_CASE(Guard) {
    const Instr& in = code[pc];
    pc = CompiledExpr::truthy(
             image_.exprs[static_cast<std::size_t>(in.a)].eval(env_))
             ? pc + 1
             : in.b;
  }
  VM_NEXT();

  VM_CASE(GuardCmp) {
    const Instr& in = code[pc];
    const Value& lhs = env_[static_cast<std::size_t>(in.a)];
    const Value& rhs = (in.d & 2) ? consts[in.b]
                                  : env_[static_cast<std::size_t>(in.b)];
    pc = ((lhs == rhs) == ((in.d & 1) == 0)) ? pc + 1 : in.c;
  }
  VM_NEXT();

  VM_CASE(PinLoad) {
    const Instr& in = code[pc];
    const Value v = slot_val(pivo, in.b);
    env_[static_cast<std::size_t>(in.a)] = v;
    if (in.c) {
      env_hash_[static_cast<std::size_t>(in.a)] =
          store.slot_hash_at(pivo + static_cast<std::uint32_t>(in.b));
    }
    ++pc;
  }
  VM_NEXT();

  VM_CASE(PinTest) {
    const Instr& in = code[pc];
    pc = env_[static_cast<std::size_t>(in.a)] ==
                 env_[static_cast<std::size_t>(in.b)]
             ? pc + 1
             : in.c;
  }
  VM_NEXT();

  VM_CASE(Quant) {
    const Instr& in = code[pc];
    const QuantCheck& q = image_.quants[static_cast<std::size_t>(in.a)];
    pc = quant_found(wm, q) == q.exists ? pc + 1 : in.b;
  }
  VM_NEXT();

  VM_CASE(Emit) {
    const Instr& in = code[pc];
    do_emit(in.a);
    pc = in.b;
  }
  VM_NEXT();

  VM_CASE(Halt) { goto done; }
#if !PARULEL_VM_COMPUTED_GOTO
    }
  }
#endif

done:
  cstats_.dispatches += ndisp;
#undef VM_CASE
#undef VM_NEXT
}




void CompiledMatcher::apply_delta(const WorkingMemory& wm,
                                  const Delta& delta) {
  check_fact_ids(delta);
  ++stats_.deltas_processed;

  // Same event queues as the interpreter (see match/treat.cpp): quant
  // work is deferred so it observes the complete post-delta state.
  struct QuantEvent {
    RuleId rule;
    int neg;
    FactId fact;
  };
  std::vector<QuantEvent> unblocks;
  std::vector<QuantEvent> disables;

  // 1. Removals: net-classify, update alphas, drop dead instantiations.
  for (FactId fid : delta.removed) {
    const FactView fact = wm.view(fid);
    run_net(wm, fid);
    stats_.alpha_activations += net_out_.size();
    for (std::uint32_t a : net_out_) {
      for (const AlphaUse& use : negative_uses_[a]) {
        const bool exists =
            rules_[use.rule].negatives[static_cast<std::size_t>(use.position)]
                .exists;
        if (exists) {
          disables.push_back({use.rule, use.position, fid});
        } else {
          unblocks.push_back({use.rule, use.position, fid});
        }
      }
      alphas_.memory(a).erase(fact);
    }
    stats_.insts_invalidated += cs_.remove_by_fact(fid);
  }

  // 2. Additions into alpha memories first (joins and quantifier checks
  // must see the complete post-delta state). The net runs once per
  // fact; the hit lists are kept for steps 3 and 4.
  const auto upkeep_start = std::chrono::steady_clock::now();
  added_alphas_.clear();
  added_offsets_.clear();
  for (FactId fid : delta.added) {
    const FactView fact = wm.view(fid);
    run_net(wm, fid);
    added_offsets_.push_back(added_alphas_.size());
    for (std::uint32_t a : net_out_) {
      alphas_.memory(a).insert(fact);
      added_alphas_.push_back(a);
    }
  }
  added_offsets_.push_back(added_alphas_.size());
  stats_.alpha_upkeep_ns += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - upkeep_start)
          .count());

  // 3. New facts in quantified alphas: (not ...) blocks existing
  // matches; (exists ...) may enable new ones.
  for (std::size_t i = 0; i < delta.added.size(); ++i) {
    const FactId fid = delta.added[i];
    for (std::size_t j = added_offsets_[i]; j < added_offsets_[i + 1]; ++j) {
      const std::uint32_t a = added_alphas_[j];
      for (const AlphaUse& use : negative_uses_[a]) {
        const bool exists =
            rules_[use.rule].negatives[static_cast<std::size_t>(use.position)]
                .exists;
        if (exists) {
          unblocks.push_back({use.rule, use.position, fid});
        } else {
          remove_blocked(wm, use.rule, use.position, fid);
        }
      }
    }
  }

  // 4. Seminaive derivation: run the compiled derive program of every
  // (rule, position) whose alpha accepted an added fact.
  for (std::size_t i = 0; i < delta.added.size(); ++i) {
    const FactId fid = delta.added[i];
    stats_.alpha_activations += added_offsets_[i + 1] - added_offsets_[i];
    for (std::size_t j = added_offsets_[i]; j < added_offsets_[i + 1]; ++j) {
      const std::uint32_t a = added_alphas_[j];
      for (const AlphaUse& use : positive_uses_[a]) {
        ++cstats_.derive_runs;
        execute(wm,
                image_.rules[use.rule]
                    .derive[static_cast<std::size_t>(use.position)],
                fid);
      }
    }
  }

  // 5. Departed (exists ...) witnesses may kill instantiations.
  for (const auto& d : disables) {
    remove_disabled(wm, d.rule, d.neg, d.fact);
  }

  // 6. Constrained re-derivations last (dedup-protected).
  for (const auto& u : unblocks) {
    ++stats_.full_rematches;
    ++cstats_.rematch_runs;
    execute(wm,
            image_.rules[u.rule].rematch[static_cast<std::size_t>(u.neg)],
            u.fact);
  }

  stats_.state_entries = cs_.size();
}

void CompiledMatcher::remove_blocked(const WorkingMemory& wm, RuleId rule_id,
                                     int neg_index, FactId fid) {
  const FactView fact = wm.view(fid);
  const CompiledRule& rule = rules_[rule_id];
  const PositionPlan& neg =
      join_.plan(rule_id).negatives[static_cast<std::size_t>(neg_index)];
  quant_.for_candidates(
      cs_, rule_id, static_cast<std::size_t>(neg_index), fact,
      [&](InstId id) {
        rebuild_env(
            rule, cs_.get(id).facts,
            [&](FactId f) { return wm.view(f); }, env_scratch_);
        if (JoinEngine::fact_blocks(fact, neg, env_scratch_)) {
          cs_.remove(id);
          ++stats_.insts_invalidated;
        }
      });
}

void CompiledMatcher::remove_disabled(const WorkingMemory& wm, RuleId rule_id,
                                      int neg_index, FactId fid) {
  const FactView fact = wm.view(fid);
  const CompiledRule& rule = rules_[rule_id];
  const PositionPlan& neg =
      join_.plan(rule_id).negatives[static_cast<std::size_t>(neg_index)];
  quant_.for_candidates(
      cs_, rule_id, static_cast<std::size_t>(neg_index), fact,
      [&](InstId id) {
        rebuild_env(
            rule, cs_.get(id).facts,
            [&](FactId f) { return wm.view(f); }, env_scratch_);
        if (JoinEngine::fact_blocks(fact, neg, env_scratch_) &&
            !join_.quantified_satisfied(wm, neg, env_scratch_)) {
          cs_.remove(id);
          ++stats_.insts_invalidated;
        }
      });
}

}  // namespace parulel
