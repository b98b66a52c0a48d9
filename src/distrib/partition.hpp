// Copy-and-constrain partitioning.
//
// Stolfo's copy-and-constrain technique distributes a production system
// by replicating each rule with added range constraints so that every
// copy only matches a slice of working memory. Operationally that is
// equivalent to partitioning facts by a designated slot ("the partition
// attribute") and running the unmodified ruleset at each site against
// its local slice — which is how this module realizes it.
//
// A PartitionScheme assigns each template either
//   - a partition slot: facts are owned by site hash(slot value) % S, or
//   - replicated status: every site holds a copy (control facts, small
//     dictionaries).
//
// The documented correctness restriction (same as PARADISER's): a
// program distributes transparently when, for every rule, all positive
// CEs of partitioned templates join on the partition attribute, so any
// instantiation's facts co-locate. The DistributedEngine validates this
// structurally and refuses schemes that break it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "lang/program.hpp"
#include "wm/fact_store.hpp"

namespace parulel {

class PartitionScheme {
 public:
  /// `slot_by_template` maps template name -> slot name for partitioned
  /// templates; templates absent from the map are replicated.
  /// Throws ParseError on unknown template/slot names.
  PartitionScheme(
      const Program& program,
      const std::unordered_map<std::string, std::string>& slot_by_template);

  /// -1 when the template is replicated.
  int partition_slot(TemplateId tmpl) const {
    return slots_[tmpl];
  }
  bool replicated(TemplateId tmpl) const { return slots_[tmpl] < 0; }

  /// Owning site of a fact's content.
  unsigned site_of(TemplateId tmpl, std::span<const Value> slots,
                   unsigned site_count) const;
  /// Owning site of a stored fact's content, from its cached slot hash.
  unsigned site_of(const FactView& fact, unsigned site_count) const;

  /// Structural validation: every rule's positive CEs of partitioned
  /// templates must join on the partition attribute through a shared
  /// variable. Returns the names of offending rules (empty = valid).
  std::vector<std::string> validate(const Program& program) const;

 private:
  std::vector<int> slots_;  ///< per TemplateId; -1 = replicated
};

}  // namespace parulel
