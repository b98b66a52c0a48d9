#include "meta/meta_engine.hpp"

#include <algorithm>
#include <iterator>

#include "match/treat.hpp"
#include "meta/reify.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace parulel {

/// The meta level's working memory and matcher, plus the fixpoint's
/// scratch buffers, reused by every run.
struct MetaEngine::Workspace {
  explicit Workspace(const Program& program)
      : wm(program.meta_schema),
        matcher(program.meta_rules, program.meta_alphas,
                program.meta_schema.size()) {}

  WorkingMemory wm;
  TreatMatcher matcher;
  std::vector<char> redacted;               ///< by eligible position
  std::vector<std::size_t> newly_redacted;  ///< positions, this round
  JoinScratch scratch;
  std::vector<Value> env;
  std::vector<char> present;  ///< by meta template: has an eligible inst
  std::vector<char> reify;    ///< by meta template: a live rule reads it
  std::vector<char> live;     ///< by meta rule: can match this cycle
};

MetaEngine::MetaEngine(const Program& program) : program_(program) {}

MetaEngine::~MetaEngine() = default;

MetaOutcome MetaEngine::run(const WorkingMemory& object_wm,
                            const ConflictSet& cs,
                            const std::vector<InstId>& eligible,
                            std::ostream* output,
                            obs::MetricsRegistry* metrics) {
  MetaOutcome outcome;
  (void)metrics;  // referenced only when PARULEL_OBS_ENABLED
  LapTimer clock;
  if (program_.meta_rules.empty() || eligible.empty()) {
    outcome.to_fire = eligible;
    clock.lap(outcome.query_ns);
    return outcome;
  }

  if (!ws_) ws_ = std::make_unique<Workspace>(program_);

  // Gate: a meta-rule with a positive CE on an inst template that no
  // eligible instantiation has cannot match this cycle. With every rule
  // dead, everything fires and the meta level does not run; otherwise
  // only the inst templates some live rule reads are reified. The meta
  // schema holds only inst templates, so both are exact.
  std::vector<char>& present = ws_->present;
  std::vector<char>& reify = ws_->reify;
  std::vector<char>& live = ws_->live;
  present.assign(program_.meta_schema.size(), 0);
  reify.assign(program_.meta_schema.size(), 0);
  live.assign(program_.meta_rules.size(), 0);
  for (InstId id : eligible) {
    present[program_.inst_templates[cs.get(id).rule]] = 1;
  }
  bool any_live = false;
  for (const CompiledRule& mrule : program_.meta_rules) {
    const bool can_match = std::all_of(
        mrule.positives.begin(), mrule.positives.end(),
        [&](const CompiledPattern& ce) { return present[ce.tmpl] != 0; });
    if (!can_match) continue;
    live[mrule.id] = 1;
    any_live = true;
    for (const CompiledPattern& ce : mrule.positives) reify[ce.tmpl] = 1;
    for (const CompiledPattern& ce : mrule.negatives) reify[ce.tmpl] = 1;
  }
  if (!any_live) {
    outcome.to_fire = eligible;
    clock.lap(outcome.query_ns);
    return outcome;
  }

  WorkingMemory& meta_wm = ws_->wm;
  TreatMatcher& matcher = ws_->matcher;
  meta_wm.clear();
  matcher.clear();
  // meta_facts[k] is the meta fact of eligible[k] (kInvalidFact when not
  // reified); per-cycle state below is indexed by that position k.
  const std::vector<FactId> meta_facts =
      reify_conflict_set(program_, object_wm, cs, eligible, meta_wm, reify);
  clock.lap(outcome.reify_ns);
  auto position_of = [&](InstId id) {
    return static_cast<std::size_t>(
        std::lower_bound(eligible.begin(), eligible.end(), id) -
        eligible.begin());
  };

  // Retraction can only create a match through a quantified CE, and an
  // enumerated rule ends the loop only once its conflict set runs dry;
  // a program of positive-only existential rules is done in one round.
  bool one_round = true;
  for (const CompiledRule& mrule : program_.meta_rules) {
    if (!mrule.existential() || !mrule.negatives.empty()) one_round = false;
  }

  const JoinEngine& join = matcher.join();
  std::vector<char>& redacted = ws_->redacted;
  std::vector<std::size_t>& newly_redacted = ws_->newly_redacted;
  redacted.assign(eligible.size(), 0);
  auto redact = [&](std::size_t pos) {
    if (redacted[pos]) return;
    redacted[pos] = 1;
    newly_redacted.push_back(pos);
  };
  JoinScratch& scratch = ws_->scratch;
  std::vector<Value>& env = ws_->env;

  for (;;) {
    ++outcome.rounds;
    clock.lap(outcome.query_ns);
    matcher.apply_delta(meta_wm, meta_wm.drain_delta());
    clock.lap(outcome.match_ns);
    ConflictSet& meta_cs = matcher.conflict_set();
    const std::vector<InstId> to_fire = meta_cs.alive_ids();
    newly_redacted.clear();

    // Pass 1: fire the enumerated rules' whole meta conflict set
    // (set-oriented), collecting the round's redactions.
    for (InstId mid : to_fire) {
      const Instantiation minst = meta_cs.get(mid);
      const CompiledRule& mrule = program_.meta_rules[minst.rule];
      rebuild_env(
          mrule, minst.facts,
          [&](FactId f) { return meta_wm.view(f); }, env);
      for (const auto& action : mrule.actions) {
        switch (action.kind) {
          case CompiledAction::Kind::Redact: {
            const Value v = action.args[0].eval(env);
            if (!v.is_int()) {
              throw RuntimeError("redact target must be an instantiation id");
            }
            const auto target = static_cast<InstId>(v.as_int());
            const std::size_t pos = position_of(target);
            if (pos < eligible.size() && eligible[pos] == target) redact(pos);
            break;
          }
          case CompiledAction::Kind::Bind: {
            const Value v = action.args[0].eval(env);
            if (static_cast<std::size_t>(action.bind_var) >= env.size()) {
              env.resize(static_cast<std::size_t>(action.bind_var) + 1);
            }
            env[static_cast<std::size_t>(action.bind_var)] = v;
            break;
          }
          case CompiledAction::Kind::Printout: {
            if (output) {
              for (const auto& item : action.args) {
                *output << item.eval(env).to_string(*program_.symbols);
              }
              *output << '\n';
            }
            break;
          }
          default:
            throw RuntimeError(
                "meta-rules may only redact, bind, and printout");
        }
      }
      meta_cs.mark_fired(mid);
      ++outcome.meta_firings;
    }

    // Pass 2: each existential rule redacts every target still standing
    // that has one witness match. Like pass 1 it reads the round-start
    // meta WM. Past round 1 only rules with quantified CEs can have
    // gained a match.
    for (const CompiledRule& mrule : program_.meta_rules) {
      if (!mrule.existential() || !live[mrule.id] ||
          (outcome.rounds > 1 && mrule.negatives.empty())) {
        continue;
      }
      const AlphaMemory& targets = join.alphas().memory(
          mrule.positives[static_cast<std::size_t>(mrule.target_ce)].alpha);
      for (FactRow row : targets.rows()) {
        const FactView target = meta_wm.store().view_row(row);
        const std::size_t pos =
            position_of(static_cast<InstId>(target.slot(0).as_int()));
        if (!redacted[pos] && join.exists(meta_wm, mrule.id, mrule.target_ce,
                                          target.id(), scratch)) {
          redact(pos);
          ++outcome.witnesses;
        }
      }
    }

    if (newly_redacted.empty()) {
      // Firings without a new redaction (printout, or a redaction of
      // what is already gone): refraction guarantees progress, so loop
      // once more — the next round's conflict set shrinks.
      if (to_fire.empty()) break;
      continue;
    }
    // Withdraw the redacted instantiations' meta facts; the next round's
    // matches can no longer be justified by them.
    std::sort(newly_redacted.begin(), newly_redacted.end());
    for (std::size_t pos : newly_redacted) {
      meta_wm.retract(meta_facts[pos]);
      outcome.redacted.push_back(eligible[pos]);
    }
    if (one_round) break;
  }

  std::sort(outcome.redacted.begin(), outcome.redacted.end());
  outcome.to_fire.reserve(eligible.size() - outcome.redacted.size());
  std::set_difference(eligible.begin(), eligible.end(),
                      outcome.redacted.begin(), outcome.redacted.end(),
                      std::back_inserter(outcome.to_fire));
  PARULEL_OBS_ONLY(if (metrics) {
    metrics->add("meta.rounds", outcome.rounds);
    metrics->add("meta.firings", outcome.meta_firings);
    metrics->add("meta.witnesses", outcome.witnesses);
    metrics->add("meta.redactions", outcome.redacted.size());
  })
  clock.lap(outcome.query_ns);
  return outcome;
}

}  // namespace parulel
