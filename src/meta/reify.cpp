#include "meta/reify.hpp"

#include "match/instantiation.hpp"

namespace parulel {

std::vector<FactId> reify_conflict_set(const Program& program,
                                       const WorkingMemory& object_wm,
                                       const ConflictSet& cs,
                                       const std::vector<InstId>& eligible,
                                       WorkingMemory& meta_wm,
                                       std::span<const char> reify_tmpls) {
  std::vector<FactId> meta_ids;
  meta_ids.reserve(eligible.size());
  std::vector<Value> env;
  // One slot buffer serves every meta fact: assert_fact copies it.
  std::vector<Value> slots;
  for (InstId id : eligible) {
    const Instantiation inst = cs.get(id);
    const TemplateId tmpl = program.inst_templates[inst.rule];
    if (!reify_tmpls.empty() && !reify_tmpls[tmpl]) {
      meta_ids.push_back(kInvalidFact);
      continue;
    }
    const CompiledRule& rule = program.rules[inst.rule];
    rebuild_env(
        rule, inst.facts,
        [&](FactId f) { return object_wm.view(f); }, env);

    slots.clear();
    slots.push_back(Value::integer(static_cast<std::int64_t>(id)));
    slots.insert(slots.end(), env.begin(), env.begin() + rule.num_lhs_vars);
    // Distinct ids make every meta fact unique, so set-semantics
    // absorption cannot trigger here.
    meta_ids.push_back(meta_wm.assert_fact(tmpl, slots));
  }
  return meta_ids;
}

}  // namespace parulel
