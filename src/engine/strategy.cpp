#include "engine/strategy.hpp"

#include <algorithm>
#include <vector>

namespace parulel {
namespace {

/// Time tags sorted descending — the LEX comparison key.
std::vector<FactId> recency_key(const Instantiation& inst) {
  std::vector<FactId> tags(inst.facts.begin(), inst.facts.end());
  std::sort(tags.begin(), tags.end(), std::greater<>());
  return tags;
}

/// OPS5 LEX order: true when a should fire before b.
bool lex_before(const Instantiation& a, const Instantiation& b) {
  const std::vector<FactId> ka = recency_key(a);
  const std::vector<FactId> kb = recency_key(b);
  const std::size_t n = std::min(ka.size(), kb.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (ka[i] != kb[i]) return ka[i] > kb[i];
  }
  if (ka.size() != kb.size()) return ka.size() < kb.size();
  return a.id < b.id;  // stable tie-break
}

/// OPS5 MEA order: first CE recency dominates.
bool mea_before(const Instantiation& a, const Instantiation& b) {
  const FactId fa = a.facts.empty() ? 0 : a.facts.front();
  const FactId fb = b.facts.empty() ? 0 : b.facts.front();
  if (fa != fb) return fa > fb;
  return lex_before(a, b);
}

}  // namespace

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::First: return "first";
    case Strategy::Lex: return "lex";
    case Strategy::Mea: return "mea";
    case Strategy::Random: return "random";
  }
  return "?";
}

InstId select_instantiation(const ConflictSet& cs,
                            std::span<const CompiledRule> rules, Strategy s,
                            Rng& rng) {
  if (cs.empty()) return kInvalidInst;

  // Salience dominates every strategy (OPS5/CLIPS behaviour): restrict
  // to the highest-salience stratum first.
  const std::vector<InstId> all = cs.alive_ids();
  int max_salience = rules[cs.get(all.front()).rule].salience;
  for (InstId id : all) {
    max_salience = std::max(max_salience, rules[cs.get(id).rule].salience);
  }
  std::vector<InstId> ids;
  ids.reserve(all.size());
  for (InstId id : all) {
    if (rules[cs.get(id).rule].salience == max_salience) ids.push_back(id);
  }

  if (s == Strategy::First) return ids.front();
  if (s == Strategy::Random) {
    return ids[rng.below(ids.size())];
  }

  InstId best = ids.front();
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const Instantiation& cand = cs.get(ids[i]);
    const Instantiation& cur = cs.get(best);
    const bool better = s == Strategy::Mea ? mea_before(cand, cur)
                                           : lex_before(cand, cur);
    if (better) best = ids[i];
  }
  return best;
}

}  // namespace parulel
