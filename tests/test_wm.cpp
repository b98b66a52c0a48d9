// Unit tests: schema and working memory.
#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/rng.hpp"
#include "wm/working_memory.hpp"

namespace parulel {
namespace {

class WmTest : public ::testing::Test {
 protected:
  WmTest() {
    edge_ = schema_.define(symbols_.intern("edge"),
                           {symbols_.intern("from"), symbols_.intern("to")});
    node_ = schema_.define(symbols_.intern("node"),
                           {symbols_.intern("id")});
  }

  std::vector<Value> pair(std::int64_t a, std::int64_t b) {
    return {Value::integer(a), Value::integer(b)};
  }

  SymbolTable symbols_;
  Schema schema_;
  TemplateId edge_ = 0;
  TemplateId node_ = 0;
};

TEST_F(WmTest, SchemaLookups) {
  EXPECT_EQ(schema_.size(), 2u);
  EXPECT_TRUE(schema_.find(symbols_.intern("edge")).has_value());
  EXPECT_FALSE(schema_.find(symbols_.intern("missing")).has_value());
  EXPECT_EQ(schema_.at(edge_).arity(), 2);
  EXPECT_EQ(schema_.at(edge_).slot_index(symbols_.intern("to")), 1);
  EXPECT_FALSE(
      schema_.at(edge_).slot_index(symbols_.intern("nope")).has_value());
}

TEST_F(WmTest, SchemaRejectsDuplicateTemplate) {
  EXPECT_THROW(schema_.define(symbols_.intern("edge"), {}), ParseError);
}

TEST_F(WmTest, SchemaRejectsDuplicateSlots) {
  const Symbol s = symbols_.intern("s");
  EXPECT_THROW(schema_.define(symbols_.intern("bad"), {s, s}), ParseError);
}

TEST_F(WmTest, AssertAssignsMonotoneIds) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  const FactId b = wm.assert_fact(edge_, pair(2, 3));
  EXPECT_NE(a, kInvalidFact);
  EXPECT_LT(a, b);
  EXPECT_EQ(wm.alive_count(), 2u);
}

TEST_F(WmTest, SetSemanticsAbsorbDuplicates) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  const FactId dup = wm.assert_fact(edge_, pair(1, 2));
  EXPECT_NE(a, kInvalidFact);
  EXPECT_EQ(dup, kInvalidFact);
  EXPECT_EQ(wm.alive_count(), 1u);
}

TEST_F(WmTest, ReassertAfterRetractGetsFreshId) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  EXPECT_TRUE(wm.retract(a));
  const FactId b = wm.assert_fact(edge_, pair(1, 2));
  EXPECT_NE(b, kInvalidFact);
  EXPECT_GT(b, a);
  EXPECT_FALSE(wm.alive(a));
  EXPECT_TRUE(wm.alive(b));
}

TEST_F(WmTest, RetractIsIdempotentAndChecked) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  EXPECT_TRUE(wm.retract(a));
  EXPECT_FALSE(wm.retract(a));
  EXPECT_FALSE(wm.retract(kInvalidFact));
  EXPECT_FALSE(wm.retract(9999));
}

TEST_F(WmTest, TombstonesRemainReadable) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(7, 8));
  wm.retract(a);
  const FactView f = wm.view(a);
  EXPECT_EQ(f.slot(0), Value::integer(7));
  EXPECT_EQ(f.slot(1), Value::integer(8));
}

TEST_F(WmTest, ExtentTracksAliveFactsPerTemplate) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  const FactId b = wm.assert_fact(edge_, pair(3, 4));
  wm.assert_fact(node_, {Value::integer(1)});
  EXPECT_EQ(wm.extent(edge_).size(), 2u);
  EXPECT_EQ(wm.extent(node_).size(), 1u);
  wm.retract(a);
  EXPECT_EQ(wm.extent(edge_).size(), 1u);
  EXPECT_EQ(wm.extent(edge_)[0], b);
}

TEST_F(WmTest, FindLocatesAliveContentOnly) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  EXPECT_EQ(wm.find(edge_, pair(1, 2)), a);
  EXPECT_FALSE(wm.find(edge_, pair(9, 9)).has_value());
  wm.retract(a);
  EXPECT_FALSE(wm.find(edge_, pair(1, 2)).has_value());
}

TEST_F(WmTest, ModifyIsRetractPlusAssert) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  const FactId b = wm.modify(a, {{1, Value::integer(5)}});
  EXPECT_NE(b, kInvalidFact);
  EXPECT_FALSE(wm.alive(a));
  EXPECT_TRUE(wm.alive(b));
  EXPECT_EQ(wm.view(b).slot(0), Value::integer(1));
  EXPECT_EQ(wm.view(b).slot(1), Value::integer(5));
}

TEST_F(WmTest, ModifyIntoExistingContentIsAbsorbed) {
  WorkingMemory wm(schema_);
  wm.assert_fact(edge_, pair(1, 5));
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  const FactId b = wm.modify(a, {{1, Value::integer(5)}});
  EXPECT_EQ(b, kInvalidFact);   // absorbed by the existing (1,5)
  EXPECT_FALSE(wm.alive(a));    // but the retract happened
  EXPECT_EQ(wm.alive_count(), 1u);
}

TEST_F(WmTest, ModifyDeadFactFails) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  wm.retract(a);
  EXPECT_EQ(wm.modify(a, {{0, Value::integer(9)}}), kInvalidFact);
}

TEST_F(WmTest, DeltaRecordsMutationsInOrder) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  const FactId b = wm.assert_fact(edge_, pair(3, 4));
  (void)wm.drain_delta();
  wm.retract(a);
  const FactId c = wm.assert_fact(edge_, pair(5, 6));
  const Delta d = wm.drain_delta();
  ASSERT_EQ(d.added.size(), 1u);
  EXPECT_EQ(d.added[0], c);
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], a);
  EXPECT_TRUE(wm.pending_delta().empty());
  (void)b;
}

TEST_F(WmTest, AssertThenRetractWithinOneDeltaCancels) {
  // A fact born and killed between drains must be invisible to matchers.
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  EXPECT_TRUE(wm.retract(a));
  const Delta d = wm.drain_delta();
  EXPECT_TRUE(d.added.empty());
  EXPECT_TRUE(d.removed.empty());
}

TEST_F(WmTest, RetractOfPreDrainFactIsRecorded) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  (void)wm.drain_delta();
  EXPECT_TRUE(wm.retract(a));
  const Delta d = wm.drain_delta();
  EXPECT_TRUE(d.added.empty());
  ASSERT_EQ(d.removed.size(), 1u);
  EXPECT_EQ(d.removed[0], a);
}

TEST_F(WmTest, DrainDeltaResetsPending) {
  WorkingMemory wm(schema_);
  wm.assert_fact(edge_, pair(1, 2));
  (void)wm.drain_delta();
  const Delta d2 = wm.drain_delta();
  EXPECT_TRUE(d2.empty());
}

TEST_F(WmTest, ArityMismatchThrows) {
  WorkingMemory wm(schema_);
  EXPECT_THROW(wm.assert_fact(edge_, {Value::integer(1)}), RuntimeError);
}

TEST_F(WmTest, ToStringRendersFact) {
  WorkingMemory wm(schema_);
  const FactId a = wm.assert_fact(edge_, pair(1, 2));
  EXPECT_EQ(wm.to_string(a, symbols_), "(edge (from 1) (to 2))");
}

TEST_F(WmTest, FingerprintIgnoresAssertionOrder) {
  WorkingMemory wm1(schema_);
  wm1.assert_fact(edge_, pair(1, 2));
  wm1.assert_fact(edge_, pair(3, 4));

  WorkingMemory wm2(schema_);
  wm2.assert_fact(edge_, pair(3, 4));
  wm2.assert_fact(edge_, pair(1, 2));

  EXPECT_EQ(wm1.content_fingerprint(), wm2.content_fingerprint());
}

TEST_F(WmTest, FingerprintSeesContentDifferences) {
  WorkingMemory wm1(schema_);
  wm1.assert_fact(edge_, pair(1, 2));
  WorkingMemory wm2(schema_);
  wm2.assert_fact(edge_, pair(1, 3));
  EXPECT_NE(wm1.content_fingerprint(), wm2.content_fingerprint());
}

TEST_F(WmTest, FingerprintIgnoresTombstones) {
  WorkingMemory wm1(schema_);
  wm1.assert_fact(edge_, pair(1, 2));
  const FactId doomed = wm1.assert_fact(edge_, pair(9, 9));
  wm1.retract(doomed);

  WorkingMemory wm2(schema_);
  wm2.assert_fact(edge_, pair(1, 2));

  EXPECT_EQ(wm1.content_fingerprint(), wm2.content_fingerprint());
}

TEST_F(WmTest, ManyFactsStressExtentsAndIndex) {
  WorkingMemory wm(schema_);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_NE(wm.assert_fact(edge_, pair(i, i + 1)), kInvalidFact);
  }
  EXPECT_EQ(wm.alive_count(), 5000u);
  // Retract every other fact via find().
  for (int i = 0; i < 5000; i += 2) {
    auto id = wm.find(edge_, pair(i, i + 1));
    ASSERT_TRUE(id.has_value());
    EXPECT_TRUE(wm.retract(*id));
  }
  EXPECT_EQ(wm.alive_count(), 2500u);
  EXPECT_EQ(wm.extent(edge_).size(), 2500u);
}

// Struct-of-arrays round trip: drive every mutation through the handle
// API and verify the column store stays consistent with the id space.
TEST_F(WmTest, SoaRoundTripSweep) {
  WorkingMemory wm(schema_);
  // Interleave asserts across templates so rows of one template are not
  // contiguous in the store.
  std::vector<FactId> edges;
  std::vector<FactId> nodes;
  for (int i = 0; i < 200; ++i) {
    edges.push_back(wm.assert_fact(edge_, pair(i, i + 1)));
    if (i % 3 == 0) {
      nodes.push_back(wm.assert_fact(node_, {Value::integer(i)}));
    }
  }
  // Retract a third, modify a third (absorbing none).
  for (std::size_t i = 0; i < edges.size(); i += 3) wm.retract(edges[i]);
  for (std::size_t i = 1; i < edges.size(); i += 3) {
    edges[i] = wm.modify(edges[i], {{1, Value::integer(10000 + (int)i)}});
  }
  // Punch a reserved-id gap like a snapshot restore would.
  const FactId before_gap = wm.high_water();
  wm.reserve_ids(before_gap + 7);
  const FactId after_gap = wm.assert_fact(edge_, pair(-1, -2));
  EXPECT_EQ(after_gap, before_gap + 8);

  const FactStore& store = wm.store();
  // Sweep the whole id space: every id maps to a row or is a reserved
  // tombstone; rows are monotone in id (recency order is the row order).
  FactRow prev_row = kNoFactRow;
  std::size_t alive_seen = 0;
  for (FactId id = 1; id <= wm.high_water(); ++id) {
    const FactRow row = store.row_of(id);
    if (row == kNoFactRow) {
      EXPECT_FALSE(wm.alive(id));  // reserved ids never lived
      continue;
    }
    if (prev_row != kNoFactRow) {
      EXPECT_GT(row, prev_row);
    }
    prev_row = row;
    const FactView f = wm.view(id);
    EXPECT_EQ(f.id(), id);
    EXPECT_EQ(f.row(), row);
    EXPECT_EQ(f.alive(), wm.alive(id));
    if (f.alive()) ++alive_seen;
    // The cached content hash is the canonical structural hash.
    const auto slots = f.copy_slots();
    EXPECT_EQ(f.content_hash(), fact_content_hash(f.tmpl(), slots));
    // Per-slot cached hashes match Value::hash().
    for (std::size_t s = 0; s < f.slot_count(); ++s) {
      EXPECT_EQ(f.slot_hash(s), f.slot(s).hash());
    }
  }
  EXPECT_EQ(alive_seen, wm.alive_count());
  // find() agrees with the view for alive content.
  for (FactId id : wm.extent(edge_)) {
    const FactView f = wm.view(id);
    EXPECT_EQ(wm.find(edge_, f.copy_slots()), id);
  }
}

// A pre-redesign exact snapshot is a list of plain `Fact` records plus a
// high-water mark (see service/session.cpp). Replaying one into the SoA
// store must reproduce the identical fingerprint and id space — this is
// the compatibility contract for checkpoints and journal state records
// written before the layout change.
TEST_F(WmTest, ExactSnapshotReplayKeepsFingerprint) {
  WorkingMemory wm(schema_);
  std::vector<FactId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(wm.assert_fact(edge_, pair(i, i * 2)));
  for (std::size_t i = 0; i < ids.size(); i += 4) wm.retract(ids[i]);
  wm.modify(ids[1], {{0, Value::integer(-5)}});
  wm.assert_fact(node_, {Value::integer(42)});

  // Capture in the serialization-boundary format (unchanged struct).
  std::vector<Fact> snapshot;
  const FactId high_water = wm.high_water();
  for (FactId id = 1; id <= high_water; ++id) {
    if (!wm.alive(id)) continue;
    const FactView f = wm.view(id);
    snapshot.push_back(Fact{id, f.tmpl(), f.copy_slots()});
    // The Fact struct's hash and the store's cached hash are the same
    // canonical routine — checkpoint digests survive the redesign.
    EXPECT_EQ(snapshot.back().content_hash(), f.content_hash());
  }

  WorkingMemory replay(schema_);
  for (const Fact& f : snapshot) replay.assert_fact_at(f.id, f.tmpl, f.slots);
  replay.reserve_ids(high_water);

  EXPECT_EQ(replay.high_water(), wm.high_water());
  EXPECT_EQ(replay.alive_count(), wm.alive_count());
  EXPECT_EQ(replay.content_fingerprint(), wm.content_fingerprint());
  EXPECT_EQ(replay.extent(edge_).size(), wm.extent(edge_).size());
  // Replayed facts keep their original time tags, so recency-sensitive
  // consumers see the same order.
  for (FactId id : wm.extent(edge_)) {
    ASSERT_TRUE(replay.alive(id));
    EXPECT_TRUE(replay.view(id).same_content(wm.view(id)));
  }
}

// content_fingerprint() is a running value; a random walk through every
// mutator must keep it equal to a scan of the alive facts computed here.
TEST_F(WmTest, RunningFingerprintMatchesScanUnderRandomMutation) {
  auto scan = [](const WorkingMemory& wm) {
    std::uint64_t fp = WorkingMemory::kFingerprintSeed;
    for (FactId id = 1; id <= wm.high_water(); ++id) {
      if (wm.alive(id)) fp ^= fingerprint_mix(wm.view(id).content_hash());
    }
    return fp;
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    WorkingMemory wm(schema_);
    EXPECT_EQ(wm.content_fingerprint(), WorkingMemory::kFingerprintSeed);
    auto random_alive = [&]() -> FactId {
      for (int tries = 0; tries < 8 && wm.high_water() > 0; ++tries) {
        const auto id = static_cast<FactId>(
            rng.between(1, static_cast<std::int64_t>(wm.high_water())));
        if (wm.alive(id)) return id;
      }
      return kInvalidFact;
    };
    for (int step = 0; step < 400; ++step) {
      // Small value ranges so absorbed duplicates happen often.
      const std::int64_t a = rng.between(0, 7);
      const std::int64_t b = rng.between(0, 7);
      switch (rng.below(6)) {
        case 0:
        case 1:
          wm.assert_fact(edge_, pair(a, b));
          break;
        case 2:
          wm.assert_fact(node_, {Value::integer(a)});
          break;
        case 3:
          wm.retract(random_alive());
          break;
        case 4:
          if (const FactId id = random_alive(); id != kInvalidFact) {
            wm.modify(id, {{0, Value::integer(b)}});
          }
          break;
        case 5:
          if (rng.below(2) == 0) {
            wm.reserve_ids(wm.high_water() + 1 +
                           static_cast<FactId>(rng.below(3)));
          } else if (!wm.find(edge_, pair(a + 100, b))) {
            wm.assert_fact_at(wm.high_water() + 1 +
                                  static_cast<FactId>(rng.below(3)),
                              edge_, pair(a + 100, b));
          }
          break;
      }
      if (rng.below(16) == 0) wm.drain_delta();
      ASSERT_EQ(wm.content_fingerprint(), scan(wm)) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace parulel
