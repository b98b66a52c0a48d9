// Unit tests: partitioning and the simulated distributed engine.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "distrib/copy_constrain.hpp"
#include "distrib/dist_engine.hpp"
#include "engine/par_engine.hpp"
#include "support/error.hpp"
#include "workloads/workloads.hpp"

namespace parulel {
namespace {

constexpr const char* kTcProgram = R"(
(deftemplate edge (slot from) (slot to))
(deftemplate path (slot from) (slot to))
(defrule base (edge (from ?a) (to ?b)) (not (path (from ?a) (to ?b)))
  => (assert (path (from ?a) (to ?b))))
(defrule extend (path (from ?a) (to ?b)) (edge (from ?b) (to ?c))
  (not (path (from ?a) (to ?c)))
  => (assert (path (from ?a) (to ?c))))
(deffacts g
  (edge (from 1) (to 2)) (edge (from 2) (to 3)) (edge (from 3) (to 4)))
)";

TEST(PartitionScheme, ResolvesNames) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));
  const TemplateId edge_t = *p.schema.find(p.symbols->intern("edge"));
  EXPECT_EQ(scheme.partition_slot(path_t), 0);
  EXPECT_TRUE(scheme.replicated(edge_t));
}

TEST(PartitionScheme, UnknownNamesThrow) {
  const Program p = parse_program(kTcProgram);
  EXPECT_THROW(PartitionScheme(p, {{"nope", "from"}}), ParseError);
  EXPECT_THROW(PartitionScheme(p, {{"path", "nope"}}), ParseError);
}

TEST(PartitionScheme, SiteOfIsStable) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));
  const std::vector<Value> fact = {Value::integer(7), Value::integer(9)};
  const unsigned site = scheme.site_of(path_t, fact, 4);
  EXPECT_LT(site, 4u);
  EXPECT_EQ(scheme.site_of(path_t, fact, 4), site);
  // Single site: everything is site 0.
  EXPECT_EQ(scheme.site_of(path_t, fact, 1), 0u);
}

TEST(PartitionScheme, ValidAssignmentAccepted) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  EXPECT_TRUE(scheme.validate(p).empty());
}

TEST(PartitionScheme, CrossJoinRejected) {
  // Partitioning edge by `from` breaks `extend`: path(?a,?b) join
  // edge(?b,?c) crosses partitions.
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}, {"edge", "from"}});
  const auto offending = scheme.validate(p);
  ASSERT_EQ(offending.size(), 1u);
  EXPECT_EQ(offending[0], "extend");
}

TEST(DistributedEngine, StrictModeRefusesBadSchemes) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}, {"edge", "from"}});
  DistConfig cfg;
  cfg.sites = 2;
  EXPECT_THROW(DistributedEngine(p, std::move(scheme), cfg), RuntimeError);
}

TEST(DistributedEngine, ComputesClosureAcrossSites) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  DistConfig cfg;
  cfg.sites = 3;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_TRUE(stats.run.quiescent);
  // Chain 1->2->3->4: 6 paths.
  std::size_t paths = 0;
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));
  for (unsigned s = 0; s < dist.site_count(); ++s) {
    paths += dist.site_wm(s).extent(path_t).size();
  }
  EXPECT_EQ(paths, 6u);
}

TEST(DistributedEngine, ReplicatedFactsReachEverySite) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  DistConfig cfg;
  cfg.sites = 4;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const TemplateId edge_t = *p.schema.find(p.symbols->intern("edge"));
  for (unsigned s = 0; s < 4; ++s) {
    EXPECT_EQ(dist.site_wm(s).extent(edge_t).size(), 3u) << "site " << s;
  }
}

TEST(DistributedEngine, PartitionedFactsLandOnOneSite) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  DistConfig cfg;
  cfg.sites = 4;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  dist.run();
  // Every path fact lives on exactly the site its `from` hashes to.
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));
  PartitionScheme check(p, {{"path", "from"}});
  for (unsigned s = 0; s < 4; ++s) {
    for (FactId id : dist.site_wm(s).extent(path_t)) {
      const auto slots = dist.site_wm(s).view(id).copy_slots();
      EXPECT_EQ(check.site_of(path_t, slots, 4), s);
    }
  }
}

TEST(DistributedEngine, MessagesAreCounted) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  DistConfig cfg;
  cfg.sites = 3;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  // Replicated initial edges were delivered before run(); path asserts
  // are all site-local for this scheme (path.from = ?a everywhere), so
  // messages may be zero — but broadcasts of nothing and negative counts
  // are impossible.
  EXPECT_GE(stats.messages + stats.broadcasts, 0u);
  EXPECT_EQ(stats.per_site_firings.size(), 3u);
}

TEST(DistributedEngine, SingleSiteEqualsSharedMemory) {
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {{"path", "from"}});
  DistConfig cfg;
  cfg.sites = 1;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_TRUE(stats.run.quiescent);
  EXPECT_EQ(stats.messages, 0u);
}

TEST(DistributedEngine, MetaRulesRunPerSite) {
  // The meta-stress waltz builds witnesses by rules under a defer-prune
  // meta-rule; distributed by cube, each site runs its own redaction
  // fixpoint — and must land on the same global result.
  const auto w = workloads::make_waltz(3, /*prebuilt_witnesses=*/false);
  const Program p = parse_program(w.source);

  EngineConfig cfg;
  cfg.threads = 2;
  cfg.matcher = MatcherKind::ParallelTreat;
  ParallelEngine shared(p, cfg);
  shared.assert_initial_facts();
  shared.run();

  PartitionScheme scheme(p, w.partition);
  DistConfig dc;
  dc.sites = 3;
  DistributedEngine dist(p, std::move(scheme), dc);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_TRUE(stats.run.quiescent);
  EXPECT_GT(stats.run.total_redactions, 0u);
  EXPECT_EQ(dist.global_fingerprint(), shared.wm().content_fingerprint());
}

TEST(DistributedEngine, HaltPropagatesAcrossSites) {
  const Program p = parse_program(R"(
    (deftemplate task (slot id))
    (deftemplate poison (slot id))
    (defrule work (task (id ?i)) => (assert (poison (id ?i))))
    (defrule stop (poison (id ?i)) => (halt))
    (deffacts f (task (id 1)) (task (id 2)) (task (id 3))))");
  PartitionScheme scheme(p, {{"task", "id"}, {"poison", "id"}});
  DistConfig cfg;
  cfg.sites = 3;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_TRUE(stats.run.halted);
}

TEST(DistributedEngine, SimulatedWallTimeIsPopulated) {
  const auto w = workloads::make_tc(16, 36, 5);
  const Program p = parse_program(w.source);
  PartitionScheme scheme(p, w.partition);
  DistConfig cfg;
  cfg.sites = 2;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_GT(stats.sim_wall_ns, 0u);
  EXPECT_LE(stats.sim_wall_ns, stats.run.wall_ns * 2);  // sane bound
}

// ------------------------------------------- literal copy-and-constrain

TEST(CopyConstrain, UnionOfConstrainedCopiesEqualsFullRun) {
  // The original mechanism, demonstrated directly: each site runs ITS
  // constrained rule copies over the FULL fact set; the union of what
  // the sites derive equals one unconstrained run.
  const auto w = workloads::make_tc(24, 60, 31);
  const Program p = parse_program(w.source);
  PartitionScheme scheme(p, w.partition);

  // Reference: unconstrained run.
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.matcher = MatcherKind::ParallelTreat;
  ParallelEngine full(p, cfg);
  full.assert_initial_facts();
  full.run();
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));

  auto path_set = [&](const WorkingMemory& wm) {
    std::set<std::pair<std::int64_t, std::int64_t>> out;
    for (FactId id : wm.extent(path_t)) {
      const FactView f = wm.view(id);
      out.emplace(f.slot(0).as_int(), f.slot(1).as_int());
    }
    return out;
  };
  const auto expected = path_set(full.wm());

  constexpr unsigned kSites = 3;
  std::set<std::pair<std::int64_t, std::int64_t>> unioned;
  std::vector<std::size_t> per_site;
  std::vector<Program> copies;  // keep alive: engines hold references
  copies.reserve(kSites);
  std::vector<std::unique_ptr<ParallelEngine>> engines;
  for (unsigned s = 0; s < kSites; ++s) {
    copies.push_back(constrain_copy(p, scheme, s, kSites));
    engines.push_back(std::make_unique<ParallelEngine>(copies.back(), cfg));
    engines.back()->assert_initial_facts();  // FULL fact set
    engines.back()->run();
    const auto site_paths = path_set(engines.back()->wm());
    per_site.push_back(site_paths.size());
    for (const auto& path : site_paths) unioned.insert(path);
  }

  EXPECT_EQ(unioned, expected);
  // The constraint really sliced the work: no site derived everything.
  for (std::size_t n : per_site) EXPECT_LT(n, expected.size());
}

TEST(CopyConstrain, SlicesAreDisjointForPartitionedTemplates) {
  const auto w = workloads::make_tc(16, 40, 17);
  const Program p = parse_program(w.source);
  PartitionScheme scheme(p, w.partition);
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));

  EngineConfig cfg;
  cfg.threads = 1;
  cfg.matcher = MatcherKind::ParallelTreat;
  constexpr unsigned kSites = 4;
  std::map<std::pair<std::int64_t, std::int64_t>, int> owners;
  std::vector<Program> copies;
  copies.reserve(kSites);
  for (unsigned s = 0; s < kSites; ++s) {
    copies.push_back(constrain_copy(p, scheme, s, kSites));
    ParallelEngine engine(copies.back(), cfg);
    engine.assert_initial_facts();
    engine.run();
    for (FactId id : engine.wm().extent(path_t)) {
      const FactView f = engine.wm().view(id);
      owners[{f.slot(0).as_int(), f.slot(1).as_int()}]++;
    }
  }
  for (const auto& [path, count] : owners) {
    EXPECT_EQ(count, 1) << path.first << "->" << path.second;
  }
}

TEST(CopyConstrain, AgreesWithDistributedEngineSiteAssignment) {
  // hash-slice semantics match the routing engine's site_of.
  const auto w = workloads::make_tc(16, 40, 23);
  const Program p = parse_program(w.source);
  PartitionScheme scheme(p, w.partition);
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));

  EngineConfig cfg;
  cfg.threads = 1;
  cfg.matcher = MatcherKind::ParallelTreat;
  const Program copy0 = constrain_copy(p, scheme, 0, 3);
  ParallelEngine engine(copy0, cfg);
  engine.assert_initial_facts();
  engine.run();
  for (FactId id : engine.wm().extent(path_t)) {
    const auto slots = engine.wm().view(id).copy_slots();
    EXPECT_EQ(scheme.site_of(path_t, slots, 3), 0u);
  }
}

// ------------------------------------------------ partitioning edge cases

TEST(PartitionScheme, EmptyMapReplicatesEveryTemplate) {
  // A scheme with no partitioned templates is legal: every site holds a
  // full copy and computes the whole closure locally.
  const Program p = parse_program(kTcProgram);
  PartitionScheme scheme(p, {});
  for (TemplateId t = 0; t < p.schema.size(); ++t) {
    EXPECT_TRUE(scheme.replicated(t));
    EXPECT_EQ(scheme.partition_slot(t), -1);
    const std::vector<Value> slots{Value::integer(9), Value::integer(3)};
    EXPECT_EQ(scheme.site_of(t, slots, 5), 0u);
  }
  EXPECT_TRUE(scheme.validate(p).empty());

  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.matcher = MatcherKind::ParallelTreat;
  ParallelEngine shared(p, ecfg);
  shared.assert_initial_facts();
  shared.run();

  DistConfig cfg;
  cfg.sites = 3;
  DistributedEngine dist(p, PartitionScheme(p, {}), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_TRUE(stats.run.quiescent);
  const TemplateId path_t = *p.schema.find(p.symbols->intern("path"));
  for (unsigned s = 0; s < 3; ++s) {
    EXPECT_EQ(dist.site_wm(s).extent(path_t).size(), 6u) << "site " << s;
  }
  EXPECT_EQ(dist.global_fingerprint(), shared.wm().content_fingerprint());
}

TEST(DistributedEngine, AllFactsHashingToOneSiteStillConverges) {
  // Pathological skew: every fact carries the same partition-slot value,
  // so one site owns the entire slice and the rest sit idle. The cluster
  // must still quiesce with the right answer — skew is a performance
  // hazard, not a correctness one.
  const Program p = parse_program(R"(
    (deftemplate item (slot bucket) (slot id))
    (deftemplate seen (slot bucket) (slot id))
    (defrule mark (item (bucket ?b) (id ?i))
      (not (seen (bucket ?b) (id ?i)))
      => (assert (seen (bucket ?b) (id ?i))))
    (deffacts f
      (item (bucket 7) (id 1)) (item (bucket 7) (id 2))
      (item (bucket 7) (id 3)) (item (bucket 7) (id 4))
      (item (bucket 7) (id 5)) (item (bucket 7) (id 6))))");
  PartitionScheme scheme(p, {{"item", "bucket"}, {"seen", "bucket"}});
  DistConfig cfg;
  cfg.sites = 4;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_TRUE(stats.run.quiescent);

  const TemplateId item_t = *p.schema.find(p.symbols->intern("item"));
  const TemplateId seen_t = *p.schema.find(p.symbols->intern("seen"));
  unsigned owner_sites = 0;
  for (unsigned s = 0; s < 4; ++s) {
    const std::size_t items = dist.site_wm(s).extent(item_t).size();
    const std::size_t seen = dist.site_wm(s).extent(seen_t).size();
    if (items == 0) {
      EXPECT_EQ(seen, 0u) << "idle site " << s << " derived facts";
      EXPECT_EQ(stats.per_site_firings[s], 0u);
    } else {
      ++owner_sites;
      EXPECT_EQ(items, 6u);
      EXPECT_EQ(seen, 6u);
      EXPECT_EQ(stats.per_site_firings[s], 6u);
    }
  }
  EXPECT_EQ(owner_sites, 1u);
}

TEST(DistributedEngine, RetractionOfPartitionedFactsRoutesToOwner) {
  // Rules that retract partitioned facts: the retraction must land on
  // the owning site and negative CEs over the retracted template must
  // see the removal. Afterward no token survives anywhere.
  const Program p = parse_program(R"(
    (deftemplate token (slot key))
    (deftemplate used (slot key))
    (defrule consume ?t <- (token (key ?k))
      => (retract ?t) (assert (used (key ?k))))
    (deffacts f
      (token (key 1)) (token (key 2)) (token (key 3))
      (token (key 4)) (token (key 5))))");
  PartitionScheme scheme(p, {{"token", "key"}, {"used", "key"}});
  DistConfig cfg;
  cfg.sites = 3;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  EXPECT_TRUE(stats.run.quiescent);

  const TemplateId token_t = *p.schema.find(p.symbols->intern("token"));
  const TemplateId used_t = *p.schema.find(p.symbols->intern("used"));
  std::size_t tokens = 0, used = 0;
  for (unsigned s = 0; s < 3; ++s) {
    tokens += dist.site_wm(s).extent(token_t).size();
    used += dist.site_wm(s).extent(used_t).size();
  }
  EXPECT_EQ(tokens, 0u);
  EXPECT_EQ(used, 5u);

  // Shared-memory reference agrees bit-for-bit.
  EngineConfig ecfg;
  ecfg.threads = 1;
  ecfg.matcher = MatcherKind::ParallelTreat;
  ParallelEngine shared(p, ecfg);
  shared.assert_initial_facts();
  shared.run();
  EXPECT_EQ(dist.global_fingerprint(), shared.wm().content_fingerprint());
}

TEST(CopyConstrain, ConstrainedCopiesHandleRetractingRules) {
  // The literal transformation with a retracting rule: each constrained
  // copy retracts only its own slice's tokens from the full fact set,
  // so the union of survivors across copies is exactly the full set of
  // `used` facts and (site_count - 1) stale copies of each token —
  // i.e. every copy retracted precisely the tokens its guard admits.
  const Program p = parse_program(R"(
    (deftemplate token (slot key))
    (deftemplate used (slot key))
    (defrule consume ?t <- (token (key ?k))
      => (retract ?t) (assert (used (key ?k))))
    (deffacts f
      (token (key 1)) (token (key 2)) (token (key 3))
      (token (key 4)) (token (key 5))))");
  PartitionScheme scheme(p, {{"token", "key"}, {"used", "key"}});
  const TemplateId token_t = *p.schema.find(p.symbols->intern("token"));
  const TemplateId used_t = *p.schema.find(p.symbols->intern("used"));

  EngineConfig cfg;
  cfg.threads = 1;
  cfg.matcher = MatcherKind::ParallelTreat;
  constexpr unsigned kSites = 3;
  std::set<std::int64_t> used_union;
  std::size_t surviving_tokens = 0;
  std::vector<Program> copies;
  copies.reserve(kSites);
  for (unsigned s = 0; s < kSites; ++s) {
    copies.push_back(constrain_copy(p, scheme, s, kSites));
    ParallelEngine engine(copies.back(), cfg);
    engine.assert_initial_facts();  // FULL fact set at every site
    engine.run();
    surviving_tokens += engine.wm().extent(token_t).size();
    for (FactId id : engine.wm().extent(used_t)) {
      used_union.insert(engine.wm().view(id).slot(0).as_int());
    }
  }
  EXPECT_EQ(used_union, (std::set<std::int64_t>{1, 2, 3, 4, 5}));
  // 5 tokens x 3 copies = 15 instances; each token retracted exactly
  // once (by its owner's copy) leaves 10 stale replicas.
  EXPECT_EQ(surviving_tokens, 5u * (kSites - 1));
}

TEST(DistributedEngine, TracedMessageCurveMatchesTotals) {
  const auto w = workloads::make_tc(12, 30, 23);
  const Program p = parse_program(w.source);
  PartitionScheme scheme(p, w.partition);
  DistConfig cfg;
  cfg.sites = 4;
  cfg.trace_cycles = true;
  DistributedEngine dist(p, std::move(scheme), cfg);
  dist.assert_initial_facts();
  const DistStats stats = dist.run();
  std::uint64_t sum = 0;
  for (auto m : stats.per_cycle_messages) sum += m;
  EXPECT_EQ(sum, stats.messages);
}

}  // namespace
}  // namespace parulel
