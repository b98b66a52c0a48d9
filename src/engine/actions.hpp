// RHS action execution.
//
// Two modes:
//  - direct: the sequential engine applies actions to working memory as
//    they execute (OPS5 semantics);
//  - buffered: the PARULEL parallel engine evaluates actions against an
//    immutable WM snapshot into a FiringBuffer, merged later. Buffered
//    execution is what makes parallel firing race-free: RHS evaluation
//    only reads, and all writes happen in one deterministic merge pass.
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "lang/program.hpp"
#include "match/instantiation.hpp"
#include "wm/working_memory.hpp"

namespace parulel {

/// One buffered write. Modify is retract+assert fused so the merge can
/// apply first-writer-wins atomically (losing the retract skips the
/// paired assert). Assert and Modify carry their full new content as a
/// range of the buffer's slot arenas, hashed while firing.
struct BufferedOp {
  enum class Kind : std::uint8_t { Assert, Retract, Modify };
  Kind kind = Kind::Assert;
  TemplateId tmpl = kInvalidTemplate;  ///< Assert / Modify
  FactId retract_id = kInvalidFact;    ///< Retract / Modify
  std::uint32_t slot_begin = 0;        ///< Assert / Modify: arena offset
  std::uint32_t slot_count = 0;
  std::uint64_t content_hash = 0;      ///< Assert / Modify
};

/// One firing's extent in a FiringBuffer.
struct BufferedFiring {
  std::uint32_t op_begin = 0;
  std::uint32_t op_end = 0;
  std::uint32_t text_begin = 0;  ///< printout text, when a printout ran
  std::uint32_t text_end = 0;
  bool halt = false;
};

/// Everything a run of firings wants to do to the world, in flat arenas:
/// op records, the new slot values with their Value::hash() (the
/// store's cached hash column, so the merge never rehashes), the
/// printout text, and one record per firing. clear() keeps every
/// arena's capacity, so a buffer reused across cycles stops allocating
/// once it has held its largest cycle. Aligned to a cache line: engines
/// keep one per worker side by side.
class alignas(64) FiringBuffer {
 public:
  /// Drop every firing; capacity is kept.
  void clear();

  /// Firings buffered since the last clear().
  std::size_t size() const { return firings_.size(); }
  const BufferedFiring& firing(std::size_t i) const { return firings_[i]; }

  std::span<const BufferedOp> ops(const BufferedFiring& f) const {
    return {ops_.data() + f.op_begin, f.op_end - f.op_begin};
  }
  std::string_view text(const BufferedFiring& f) const {
    return std::string_view(text_).substr(f.text_begin,
                                          f.text_end - f.text_begin);
  }
  /// New content of an Assert / Modify op, and its per-slot hashes.
  std::span<const Value> slots(const BufferedOp& op) const {
    return {values_.data() + op.slot_begin, op.slot_count};
  }
  std::span<const std::size_t> slot_hashes(const BufferedOp& op) const {
    return {hashes_.data() + op.slot_begin, op.slot_count};
  }

 private:
  friend void fire_buffered(const Program&, const Instantiation&,
                            const WorkingMemory&, FiringBuffer&);

  std::vector<BufferedOp> ops_;
  std::vector<Value> values_;
  std::vector<std::size_t> hashes_;  ///< aligned with values_
  std::string text_;
  std::vector<BufferedFiring> firings_;
  std::vector<Value> env_;  ///< the firing rule's variables (scratch)
};

/// Outcome counters for a direct (sequential) firing.
struct DirectFireResult {
  std::uint64_t asserts = 0;
  std::uint64_t retracts = 0;
  std::uint64_t duplicate_asserts = 0;
  bool halt = false;
};

/// Fire `inst` directly against `wm` (sequential engine).
DirectFireResult fire_direct(const Program& program, const Instantiation& inst,
                             WorkingMemory& wm, std::ostream* output);

/// Evaluate `inst`'s RHS against `wm` as a read-only snapshot, appending
/// one firing to `out` (its index is out.size() - 1 on return).
void fire_buffered(const Program& program, const Instantiation& inst,
                   const WorkingMemory& wm, FiringBuffer& out);

/// Merge counters reported by apply_firing.
struct MergeResult {
  std::uint64_t asserts = 0;
  std::uint64_t retracts = 0;
  std::uint64_t duplicate_asserts = 0;
  std::uint64_t write_conflicts = 0;
  bool halt = false;
};

/// Apply firing `index` of `buffer` to `wm`; first-writer-wins on
/// retract races (a failed retract counts as a write conflict and, for
/// Modify, suppresses the paired assert). Asserts go through
/// WorkingMemory::assert_hashed with the hashes computed while firing.
void apply_firing(const FiringBuffer& buffer, std::size_t index,
                  WorkingMemory& wm, std::ostream* output,
                  MergeResult& result);

}  // namespace parulel
