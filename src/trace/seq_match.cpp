#include "trace/seq_match.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace commroute::trace {

std::string to_string(MatchKind kind) {
  switch (kind) {
    case MatchKind::kNone:
      return "none";
    case MatchKind::kSubsequence:
      return "subsequence";
    case MatchKind::kRepetition:
      return "repetition";
    case MatchKind::kExact:
      return "exact";
  }
  throw InvariantError("bad MatchKind");
}

bool matches_exactly(const Trace& original, const Trace& candidate) {
  return original == candidate;
}

bool matches_with_repetition(const Trace& original, const Trace& candidate) {
  // Stutter-invariant reading of "each element replaced by one or more
  // consecutive copies": the collapsed sequences must coincide (see
  // seq_match.hpp).
  return original.collapsed() == candidate.collapsed();
}

bool matches_as_subsequence(const Trace& original, const Trace& candidate) {
  // Stutter-invariant reading: the collapsed original embeds into the
  // candidate (see seq_match.hpp).
  const std::vector<Assignment> a = original.collapsed();
  const std::vector<Assignment> b = candidate.states();
  std::size_t i = 0;
  for (std::size_t j = 0; j < b.size() && i < a.size(); ++j) {
    if (b[j] == a[i]) {
      ++i;
    }
  }
  return i == a.size();
}

std::optional<std::size_t> first_divergence(const Trace& a,
                                            const Trace& b) {
  const std::size_t common = std::min(a.size(), b.size());
  if (common > 0 && a.at(0) != b.at(0)) {
    return 0;
  }
  // While the entries agree, pi(t) agrees iff step t made the same
  // changes (traces store real changes only, sorted by node).
  for (std::size_t t = 1; t < common; ++t) {
    if (!std::ranges::equal(a.changes(t), b.changes(t))) {
      return t;
    }
  }
  if (a.size() != b.size()) {
    return common;
  }
  return std::nullopt;
}

MatchKind strongest_match(const Trace& original, const Trace& candidate) {
  if (matches_exactly(original, candidate)) {
    return MatchKind::kExact;
  }
  if (matches_with_repetition(original, candidate)) {
    return MatchKind::kRepetition;
  }
  if (matches_as_subsequence(original, candidate)) {
    return MatchKind::kSubsequence;
  }
  return MatchKind::kNone;
}

}  // namespace commroute::trace
