#include "distrib/partition.hpp"

#include <optional>

#include "support/error.hpp"

namespace parulel {
namespace {

/// Variable bound to `slot` in this pattern, if any.
std::optional<VarId> var_at_slot(const CompiledPattern& pat, int slot) {
  for (const auto& def : pat.defines) {
    if (def.slot == slot) return def.var;
  }
  for (const auto& eq : pat.join_eqs) {
    if (eq.slot == slot) return eq.var;
  }
  return std::nullopt;
}

}  // namespace

PartitionScheme::PartitionScheme(
    const Program& program,
    const std::unordered_map<std::string, std::string>& slot_by_template)
    : slots_(program.schema.size(), -1) {
  for (const auto& [tmpl_name, slot_name] : slot_by_template) {
    const Symbol tmpl_sym = program.symbols->intern(tmpl_name);
    const auto tmpl = program.schema.find(tmpl_sym);
    if (!tmpl) {
      throw ParseError("partition scheme names unknown template '" +
                       tmpl_name + "'");
    }
    const Symbol slot_sym = program.symbols->intern(slot_name);
    const auto slot = program.schema.at(*tmpl).slot_index(slot_sym);
    if (!slot) {
      throw ParseError("partition scheme names unknown slot '" + slot_name +
                       "' of template '" + tmpl_name + "'");
    }
    slots_[*tmpl] = *slot;
  }
}

unsigned PartitionScheme::site_of(TemplateId tmpl,
                                  std::span<const Value> slots,
                                  unsigned site_count) const {
  const int p = slots_[tmpl];
  if (p < 0 || site_count <= 1) return 0;
  return static_cast<unsigned>(slots[static_cast<std::size_t>(p)].hash() %
                               site_count);
}

unsigned PartitionScheme::site_of(const FactView& fact,
                                  unsigned site_count) const {
  const int p = slots_[fact.tmpl()];
  if (p < 0 || site_count <= 1) return 0;
  return static_cast<unsigned>(
      fact.slot_hash(static_cast<std::size_t>(p)) % site_count);
}

std::vector<std::string> PartitionScheme::validate(
    const Program& program) const {
  std::vector<std::string> offending;
  for (const auto& rule : program.rules) {
    std::optional<VarId> shared_var;
    bool ok = true;
    int partitioned_patterns = 0;

    auto check_pattern = [&](const CompiledPattern& pat) {
      const int pslot = slots_[pat.tmpl];
      if (pslot < 0) return;  // replicated: always local
      ++partitioned_patterns;
      const auto var = var_at_slot(pat, pslot);
      if (!var) {
        ok = false;  // constant or wildcard partition slot: not provably
                     // co-located with the rest of the rule's facts
        return;
      }
      if (!shared_var) {
        shared_var = var;
      } else if (*shared_var != *var) {
        ok = false;
      }
    };

    for (const auto& pat : rule.positives) check_pattern(pat);
    for (const auto& pat : rule.negatives) check_pattern(pat);

    if (partitioned_patterns <= 1) ok = true;  // single slice, no cross-join
    if (!ok) {
      offending.emplace_back(program.symbols->name(rule.name));
    }
  }
  return offending;
}

}  // namespace parulel
