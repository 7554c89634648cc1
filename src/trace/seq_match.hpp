// Sequence matchers for the three realization senses of Def. 3.2.
//
// Given the path-assignment sequence {pi(t)} induced by an activation
// sequence in model A and the sequence {pi'(t)} induced in model B:
//   * exact:       pi'(t) = pi(t) for all t;
//   * repetition:  {pi'(t)} is {pi(t)} with each element replaced by one
//                  or more consecutive copies of itself;
//   * subsequence: {pi(t)} is a subsequence of {pi'(t)}.
// exact => repetition => subsequence.
//
// Finite-prefix caveat: Def. 3.2 relates *infinite* executions, in which
// both systems take infinitely many no-op (stuttering) steps. On finite
// prefixes a realizing execution may take fewer no-op steps than the
// realized one, so the literal finite definitions would spuriously fail.
// The repetition and subsequence matchers therefore compare modulo
// stuttering: repetition holds iff the two sequences collapse (remove
// consecutive duplicates) to the same sequence, and subsequence holds iff
// the collapsed original is a subsequence of the candidate. On stutter-
// free sequences these coincide with the literal definitions, and the
// hierarchy exact => repetition => subsequence is preserved.
#pragma once

#include <optional>
#include <string>

#include "trace/trace.hpp"

namespace commroute::trace {

/// How strongly `candidate` realizes `original`; ordered by strength.
enum class MatchKind : int {
  kNone = 0,
  kSubsequence = 1,
  kRepetition = 2,
  kExact = 3,
};

std::string to_string(MatchKind kind);

/// pi'(t) = pi(t) for every t (and equal lengths).
bool matches_exactly(const Trace& original, const Trace& candidate);

/// `candidate` is obtained from `original` by replacing each element with
/// one or more consecutive copies (order preserved, nothing else
/// inserted). Equal sequences qualify.
bool matches_with_repetition(const Trace& original, const Trace& candidate);

/// `original` is a subsequence of `candidate`.
bool matches_as_subsequence(const Trace& original, const Trace& candidate);

/// Strongest relation that holds.
MatchKind strongest_match(const Trace& original, const Trace& candidate);

/// Diagnostic for failed exact matches: the first step index at which the
/// two traces differ (or the shorter length when one is a prefix of the
/// other); nullopt when equal.
std::optional<std::size_t> first_divergence(const Trace& a, const Trace& b);

}  // namespace commroute::trace
