// The `search` workload: one op builds a fresh TransformSession from
// source text and runs one candidate search (full or rank mode).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "pipeline/search.hpp"

namespace pb {

/// One (nest, mode) pair.
struct SearchItem {
  std::string name;  ///< "<nest>/full" or "<nest>/rank"
  const CorpusEntry* src = nullptr;
  bool full = false;
  inlt::SearchSpace space;
  /// Full mode: verification binding (N and, for time loops, T).
  std::map<std::string, i64> verify_params;
};

/// What one search op produced, reduced to what the checks and the
/// metrics read.
struct SearchOutcome {
  i64 legal = 0;
  i64 total = 0;
  i64 pruned = 0;
  i64 verified = 0;
  i64 verify_failed = 0;
  std::vector<i64> top;                 ///< hit indices, best first
  std::vector<inlt::Program> programs;  ///< full mode: the hits' programs
  // Filled by replay_search only:
  i64 deps = 0;           ///< dependences of the source nest
  i64 out_lines = 0;      ///< printed lines of every generated program
  i64 tiles_tried = 0;    ///< generated programs offered to the tiler
  i64 tiles_applied = 0;  ///< ... whose plan applied
  std::string error;      ///< what() when the op threw
};

/// The independent answer for one item: legal count and top-3
/// indices from a batch check_legality over materialize_candidates.
struct SearchReference {
  i64 legal = 0;
  std::vector<i64> top;
};

/// The candidate spaces of a nest with `loops` loops. Up to four loops:
/// permutation x skew with bound 1 (full) and a depth-2 skew window
/// (rank). Deeper programs would take tens of seconds per full op, so
/// full mode sweeps orders only and rank keeps a depth-1 window.
inlt::SearchSpace full_space(size_t loops);
inlt::SearchSpace rank_space(size_t loops);

/// Full and rank items for every nest.
std::vector<SearchItem> make_search_items(
    const std::vector<CorpusEntry>& corpus, i64 verify_n, i64 verify_t);

/// The op as a user runs it: TransformSession::from_source + search(),
/// on one session thread.
SearchOutcome run_search(const SearchItem& it, unsigned verify_seed);

/// The same op replayed as its sequence of public layer calls, each
/// inside a Span, serially. Produces the same outcome as run_search.
SearchOutcome replay_search(const SearchItem& it, unsigned verify_seed);

SearchReference search_reference(const SearchItem& it);

/// "" when the outcome matches the reference, else why not.
std::string check_search(const SearchOutcome& got, const SearchReference& ref);

/// Printed lines of the outcome's programs (gen_lines of one op).
i64 outcome_lines(const SearchOutcome& o);

}  // namespace pb
