#include "engine/actions.hpp"

#include "support/error.hpp"

namespace parulel {
namespace {

/// Evaluate the full new slot vector of an Assert action.
std::vector<Value> eval_assert_slots(const CompiledAction& action,
                                     std::span<const Value> env) {
  std::vector<Value> slots;
  slots.reserve(action.slot_values.size());
  for (const auto& expr : action.slot_values) {
    slots.push_back(expr.eval(env));
  }
  return slots;
}

/// New content of a Modify against the snapshot's current slots.
std::vector<Value> eval_modified_slots(const CompiledAction& action,
                                       const FactView& fact,
                                       std::span<const Value> env) {
  std::vector<Value> slots = fact.copy_slots();
  for (const auto& [slot, expr] : action.slot_updates) {
    slots[static_cast<std::size_t>(slot)] = expr.eval(env);
  }
  return slots;
}

}  // namespace

DirectFireResult fire_direct(const Program& program,
                             const Instantiation& inst, WorkingMemory& wm,
                             std::ostream* output) {
  const CompiledRule& rule = program.rules[inst.rule];
  std::vector<Value> env;
  rebuild_env(
      rule, inst.facts,
      [&](FactId f) { return wm.view(f); }, env);

  DirectFireResult result;
  for (const auto& action : rule.actions) {
    switch (action.kind) {
      case CompiledAction::Kind::Assert: {
        const FactId id =
            wm.assert_fact(action.tmpl, eval_assert_slots(action, env));
        if (id == kInvalidFact) {
          ++result.duplicate_asserts;
        } else {
          ++result.asserts;
        }
        break;
      }
      case CompiledAction::Kind::Retract: {
        const FactId target =
            inst.facts[static_cast<std::size_t>(action.ce_index)];
        if (wm.retract(target)) ++result.retracts;
        break;
      }
      case CompiledAction::Kind::Modify: {
        const FactId target =
            inst.facts[static_cast<std::size_t>(action.ce_index)];
        if (!wm.alive(target)) break;  // retracted earlier in this RHS
        const std::vector<Value> slots =
            eval_modified_slots(action, wm.view(target), env);
        ++result.retracts;
        wm.retract(target);
        // The tombstoned record stays readable (stable storage).
        if (wm.assert_fact(wm.view(target).tmpl(), slots) == kInvalidFact) {
          ++result.duplicate_asserts;
        } else {
          ++result.asserts;
        }
        break;
      }
      case CompiledAction::Kind::Bind:
        env[static_cast<std::size_t>(action.bind_var)] =
            action.args[0].eval(env);
        break;
      case CompiledAction::Kind::Halt:
        result.halt = true;
        return result;
      case CompiledAction::Kind::Printout: {
        if (output) {
          for (const auto& item : action.args) {
            *output << item.eval(env).to_string(*program.symbols);
          }
          *output << '\n';
        }
        break;
      }
      case CompiledAction::Kind::Redact:
        throw RuntimeError("redact reached an object-level firing");
    }
  }
  return result;
}

void FiringBuffer::clear() {
  ops_.clear();
  values_.clear();
  hashes_.clear();
  text_.clear();
  firings_.clear();
}

void fire_buffered(const Program& program, const Instantiation& inst,
                   const WorkingMemory& wm, FiringBuffer& out) {
  const CompiledRule& rule = program.rules[inst.rule];
  std::vector<Value>& env = out.env_;
  rebuild_env(
      rule, inst.facts,
      [&](FactId f) { return wm.view(f); }, env);

  BufferedFiring firing;
  firing.op_begin = static_cast<std::uint32_t>(out.ops_.size());
  firing.text_begin = static_cast<std::uint32_t>(out.text_.size());
  // Record an Assert / Modify whose new content is values_[begin, end),
  // hashing it here so the serial merge does not.
  auto push_content = [&](BufferedOp::Kind kind, TemplateId tmpl,
                          FactId retract_id, std::size_t begin) {
    const std::span<const Value> slots =
        std::span<const Value>(out.values_).subspan(begin);
    BufferedOp op;
    op.kind = kind;
    op.tmpl = tmpl;
    op.retract_id = retract_id;
    op.slot_begin = static_cast<std::uint32_t>(begin);
    op.slot_count = static_cast<std::uint32_t>(slots.size());
    op.content_hash = hash_fact_slots(tmpl, slots, out.hashes_);
    out.ops_.push_back(op);
  };
  for (const auto& action : rule.actions) {
    switch (action.kind) {
      case CompiledAction::Kind::Assert: {
        const std::size_t begin = out.values_.size();
        for (const auto& expr : action.slot_values) {
          out.values_.push_back(expr.eval(env));
        }
        push_content(BufferedOp::Kind::Assert, action.tmpl, kInvalidFact,
                     begin);
        break;
      }
      case CompiledAction::Kind::Retract: {
        BufferedOp op;
        op.kind = BufferedOp::Kind::Retract;
        op.retract_id = inst.facts[static_cast<std::size_t>(action.ce_index)];
        out.ops_.push_back(op);
        break;
      }
      case CompiledAction::Kind::Modify: {
        const FactId target =
            inst.facts[static_cast<std::size_t>(action.ce_index)];
        const FactView fact = wm.view(target);
        const std::size_t begin = out.values_.size();
        for (std::uint32_t i = 0; i < fact.slot_count(); ++i) {
          out.values_.push_back(fact.slot(i));
        }
        for (const auto& [slot, expr] : action.slot_updates) {
          out.values_[begin + static_cast<std::size_t>(slot)] = expr.eval(env);
        }
        push_content(BufferedOp::Kind::Modify, fact.tmpl(), target, begin);
        break;
      }
      case CompiledAction::Kind::Bind:
        env[static_cast<std::size_t>(action.bind_var)] =
            action.args[0].eval(env);
        break;
      case CompiledAction::Kind::Halt:
        firing.halt = true;
        break;
      case CompiledAction::Kind::Printout: {
        for (const auto& item : action.args) {
          item.eval(env).append_to(out.text_, *program.symbols);
        }
        out.text_ += '\n';
        break;
      }
      case CompiledAction::Kind::Redact:
        throw RuntimeError("redact reached an object-level firing");
    }
    if (firing.halt) break;
  }
  firing.op_end = static_cast<std::uint32_t>(out.ops_.size());
  firing.text_end = static_cast<std::uint32_t>(out.text_.size());
  out.firings_.push_back(firing);
}

void apply_firing(const FiringBuffer& buffer, std::size_t index,
                  WorkingMemory& wm, std::ostream* output,
                  MergeResult& result) {
  const BufferedFiring& firing = buffer.firing(index);
  auto assert_content = [&](const BufferedOp& op) {
    if (wm.assert_hashed(op.tmpl, buffer.slots(op), buffer.slot_hashes(op),
                         op.content_hash) == kInvalidFact) {
      ++result.duplicate_asserts;
    } else {
      ++result.asserts;
    }
  };
  for (const BufferedOp& op : buffer.ops(firing)) {
    switch (op.kind) {
      case BufferedOp::Kind::Assert:
        assert_content(op);
        break;
      case BufferedOp::Kind::Retract: {
        if (wm.retract(op.retract_id)) {
          ++result.retracts;
        } else {
          ++result.write_conflicts;
        }
        break;
      }
      case BufferedOp::Kind::Modify: {
        if (!wm.retract(op.retract_id)) {
          // Another instantiation won the race for this fact; its view
          // of the modify is void (first-writer-wins).
          ++result.write_conflicts;
          break;
        }
        ++result.retracts;
        assert_content(op);
        break;
      }
    }
  }
  const std::string_view text = buffer.text(firing);
  if (output && !text.empty()) *output << text;
  if (firing.halt) result.halt = true;
}

}  // namespace parulel
