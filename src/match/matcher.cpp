#include "match/matcher.hpp"

#include "lang/program.hpp"
#include "match/parallel_treat.hpp"
#include "match/rete.hpp"
#include "match/treat.hpp"
#include "support/error.hpp"

namespace parulel {

const char* matcher_kind_name(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::Rete: return "rete";
    case MatcherKind::Treat: return "treat";
    case MatcherKind::ParallelTreat: return "parallel-treat";
  }
  return "unknown";
}

std::optional<MatcherKind> parse_matcher_kind(std::string_view name) {
  if (name == "rete") return MatcherKind::Rete;
  if (name == "treat") return MatcherKind::Treat;
  if (name == "parallel-treat") return MatcherKind::ParallelTreat;
  return std::nullopt;
}

std::span<const MatcherKind> all_matcher_kinds() {
  static constexpr MatcherKind kKinds[] = {
      MatcherKind::Rete, MatcherKind::Treat, MatcherKind::ParallelTreat};
  return kKinds;
}

std::unique_ptr<Matcher> make_matcher(MatcherKind kind,
                                      const Program& program,
                                      ThreadPool* pool) {
  switch (kind) {
    case MatcherKind::Rete:
      return std::make_unique<ReteMatcher>(program.rules, program.alphas,
                                           program.schema.size());
    case MatcherKind::Treat:
      return std::make_unique<TreatMatcher>(program.rules, program.alphas,
                                            program.schema.size());
    case MatcherKind::ParallelTreat:
      if (!pool) {
        throw RuntimeError(
            "the parallel-treat matcher requires a thread pool");
      }
      return std::make_unique<ParallelTreatMatcher>(
          program.rules, program.alphas, program.schema.size(), *pool);
  }
  throw RuntimeError("unknown matcher kind");
}

}  // namespace parulel
