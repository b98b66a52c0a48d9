// Unit tests: RHS action execution, direct vs buffered.
//
// The parallel engine's core safety property in miniature: for one
// instantiation, fire_direct(wm) and fire_buffered(snapshot) +
// apply_firing(wm) must leave working memory in identical states.
#include <gtest/gtest.h>

#include <sstream>

#include "engine/actions.hpp"
#include "match/treat.hpp"

namespace parulel {
namespace {

/// Fixture: parse, assert deffacts, match once, expose instantiations.
class ActionTest : public ::testing::Test {
 protected:
  void load(const std::string& source) {
    program_ = parse_program(source);
    wm_ = std::make_unique<WorkingMemory>(program_.schema);
    matcher_ = std::make_unique<TreatMatcher>(
        program_.rules, program_.alphas, program_.schema.size());
    for (const auto& f : program_.initial_facts) {
      wm_->assert_fact(f.tmpl, f.slots);
    }
    matcher_->apply_delta(*wm_, wm_->drain_delta());
  }

  Instantiation first_inst() {
    const auto ids = matcher_->conflict_set().alive_ids();
    EXPECT_FALSE(ids.empty());
    return matcher_->conflict_set().get(ids.front());
  }

  Program program_;
  std::unique_ptr<WorkingMemory> wm_;
  std::unique_ptr<TreatMatcher> matcher_;
};

TEST_F(ActionTest, DirectAssertEvaluatesExpressions) {
  load(R"(
    (deftemplate n (slot v))
    (deftemplate out (slot v) (slot sq))
    (defrule r (n (v ?x)) => (assert (out (v ?x) (sq (* ?x ?x)))))
    (deffacts f (n (v 7))))");
  const DirectFireResult res =
      fire_direct(program_, first_inst(), *wm_, nullptr);
  EXPECT_EQ(res.asserts, 1u);
  const TemplateId out_t = *program_.schema.find(program_.symbols->intern("out"));
  ASSERT_EQ(wm_->extent(out_t).size(), 1u);
  EXPECT_EQ(wm_->view(wm_->extent(out_t)[0]).slot(1), Value::integer(49));
}

TEST_F(ActionTest, DirectRetractTargetsBoundFact) {
  load(R"(
    (deftemplate n (slot v))
    (defrule r ?f <- (n (v ?x)) (test (== ?x 2)) => (retract ?f))
    (deffacts f (n (v 1)) (n (v 2))))");
  fire_direct(program_, first_inst(), *wm_, nullptr);
  EXPECT_EQ(wm_->alive_count(), 1u);
  const TemplateId n_t = *program_.schema.find(program_.symbols->intern("n"));
  EXPECT_TRUE(wm_->find(n_t, {Value::integer(1)}).has_value());
  EXPECT_FALSE(wm_->find(n_t, {Value::integer(2)}).has_value());
}

TEST_F(ActionTest, BindFeedsLaterActions) {
  load(R"(
    (deftemplate n (slot v))
    (deftemplate out (slot v))
    (defrule r (n (v ?x))
      => (bind ?y (+ ?x 10)) (bind ?z (* ?y 2)) (assert (out (v ?z))))
    (deffacts f (n (v 1))))");
  fire_direct(program_, first_inst(), *wm_, nullptr);
  const TemplateId out_t = *program_.schema.find(program_.symbols->intern("out"));
  ASSERT_EQ(wm_->extent(out_t).size(), 1u);
  EXPECT_EQ(wm_->view(wm_->extent(out_t)[0]).slot(0), Value::integer(22));
}

TEST_F(ActionTest, HaltCutsRemainingActions) {
  load(R"(
    (deftemplate n (slot v))
    (deftemplate out (slot v))
    (defrule r (n (v ?x)) => (halt) (assert (out (v ?x))))
    (deffacts f (n (v 1))))");
  const DirectFireResult res =
      fire_direct(program_, first_inst(), *wm_, nullptr);
  EXPECT_TRUE(res.halt);
  EXPECT_EQ(res.asserts, 0u);
}

TEST_F(ActionTest, PrintoutWritesToStream) {
  load(R"(
    (deftemplate n (slot v))
    (defrule r (n (v ?x)) => (printout "v is " ?x " squared " (* ?x ?x)))
    (deffacts f (n (v 3))))");
  std::ostringstream out;
  fire_direct(program_, first_inst(), *wm_, &out);
  EXPECT_EQ(out.str(), "v is 3 squared 9\n");
}

TEST_F(ActionTest, ModifyPreservesUntouchedSlots) {
  load(R"(
    (deftemplate rec (slot a) (slot b) (slot c))
    (defrule r ?f <- (rec (a ?x) (b 0) (c ?c)) => (modify ?f (b (+ ?x 1))))
    (deffacts f (rec (a 5) (b 0) (c 9))))");
  fire_direct(program_, first_inst(), *wm_, nullptr);
  const TemplateId rec_t = *program_.schema.find(program_.symbols->intern("rec"));
  ASSERT_EQ(wm_->extent(rec_t).size(), 1u);
  const FactView f = wm_->view(wm_->extent(rec_t)[0]);
  EXPECT_EQ(f.slot(0), Value::integer(5));
  EXPECT_EQ(f.slot(1), Value::integer(6));
  EXPECT_EQ(f.slot(2), Value::integer(9));
}

TEST_F(ActionTest, BufferedMatchesDirectOutcome) {
  const char* source = R"(
    (deftemplate n (slot v))
    (deftemplate out (slot v))
    (defrule r ?f <- (n (v ?x))
      => (retract ?f)
         (assert (out (v (* ?x 3))))
         (assert (n (v (+ ?x 1)))))
    (deffacts f (n (v 4))))";
  // Direct path.
  load(source);
  fire_direct(program_, first_inst(), *wm_, nullptr);
  const std::uint64_t direct_fp = wm_->content_fingerprint();

  // Buffered path against a snapshot, then merged.
  load(source);
  FiringBuffer fired;
  fire_buffered(program_, first_inst(), *wm_, fired);
  // Buffering must not touch working memory.
  EXPECT_EQ(wm_->alive_count(), 1u);
  MergeResult merged;
  apply_firing(fired, 0, *wm_, nullptr, merged);
  EXPECT_EQ(merged.asserts, 2u);
  EXPECT_EQ(merged.retracts, 1u);
  EXPECT_EQ(wm_->content_fingerprint(), direct_fp);
}

TEST_F(ActionTest, BufferedPrintoutIsDeferred) {
  load(R"(
    (deftemplate n (slot v))
    (defrule r (n (v ?x)) => (printout "hello " ?x))
    (deffacts f (n (v 1))))");
  FiringBuffer fired;
  fire_buffered(program_, first_inst(), *wm_, fired);
  EXPECT_EQ(fired.text(fired.firing(0)), "hello 1\n");
  std::ostringstream out;
  MergeResult merged;
  apply_firing(fired, 0, *wm_, &out, merged);
  EXPECT_EQ(out.str(), "hello 1\n");
}

TEST_F(ActionTest, BufferedModifyLosingRaceSkipsPairedAssert) {
  load(R"(
    (deftemplate n (slot v))
    (defrule r ?f <- (n (v 0)) => (modify ?f (v 1)))
    (deffacts f (n (v 0))))");
  const Instantiation inst = first_inst();
  FiringBuffer fired;
  fire_buffered(program_, inst, *wm_, fired);
  fire_buffered(program_, inst, *wm_, fired);  // same target: a race
  MergeResult merged;
  apply_firing(fired, 0, *wm_, nullptr, merged);
  apply_firing(fired, 1, *wm_, nullptr, merged);
  EXPECT_EQ(merged.write_conflicts, 1u);
  EXPECT_EQ(wm_->alive_count(), 1u);  // no duplicate (v 1)
}

TEST_F(ActionTest, DuplicateAssertIsAbsorbedAndCounted) {
  load(R"(
    (deftemplate n (slot v))
    (deftemplate out (slot v))
    (defrule r (n (v ?x)) => (assert (out (v 1))) (assert (out (v 1))))
    (deffacts f (n (v 7))))");
  const DirectFireResult res =
      fire_direct(program_, first_inst(), *wm_, nullptr);
  EXPECT_EQ(res.asserts, 1u);
  EXPECT_EQ(res.duplicate_asserts, 1u);
}

// The fire phase hashes every Assert and Modify; the merge hands those
// hashes to WorkingMemory::assert_hashed unchecked in release builds, so
// they must be exactly what the store would compute.
TEST_F(ActionTest, BufferedHashesAreTheStoresHashes) {
  load(R"(
    (deftemplate rec (slot a) (slot b) (slot c))
    (deftemplate out (slot x) (slot y) (slot z))
    (defrule r ?f <- (rec (a ?x) (b 0) (c ?c))
      => (assert (out (x ?x) (y (* ?x 2)) (z ?c)))
         (modify ?f (b (+ ?x 1))))
    (deffacts f (rec (a 5) (b 0) (c sym))))");
  FiringBuffer fired;
  fire_buffered(program_, first_inst(), *wm_, fired);
  const auto ops = fired.ops(fired.firing(0));
  ASSERT_EQ(ops.size(), 2u);
  for (const BufferedOp& op : ops) {
    const std::span<const Value> slots = fired.slots(op);
    const std::span<const std::size_t> hashes = fired.slot_hashes(op);
    ASSERT_EQ(slots.size(), 3u);
    ASSERT_EQ(hashes.size(), 3u);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(hashes[i], slots[i].hash()) << "slot " << i;
    }
    EXPECT_EQ(op.content_hash, fact_content_hash(op.tmpl, slots));
  }
  MergeResult merged;
  apply_firing(fired, 0, *wm_, nullptr, merged);
  EXPECT_EQ(merged.asserts, 2u);
  for (const BufferedOp& op : ops) {
    const auto id = wm_->find(op.tmpl, {fired.slots(op).begin(),
                                        fired.slots(op).end()});
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(wm_->view(*id).content_hash(), op.content_hash);
  }
}

}  // namespace
}  // namespace parulel
