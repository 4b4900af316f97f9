// The candidate record and the accumulator that merges decided
// candidates into a SearchResult.
//
//  * `Candidate` is what search() knows about one candidate: index,
//    matrix, CandidateResult, optional cost estimate and tile plan.
//  * `CandidateAccumulator` is the single merge point for every
//    decided candidate: it owns the SearchResult, the rejection
//    provenance (pruned subtrees, pruned leaves, evaluated-illegal
//    diagnostics) and the hit list — including the bounded best-K
//    heap rank mode uses, ordered by (cost, index) so results are
//    deterministic at any thread count.
#pragma once

#include <optional>
#include <vector>

#include "model/cost.hpp"
#include "pipeline/search.hpp"

namespace inlt {

/// One candidate of a search.
struct Candidate {
  i64 index = -1;  ///< position in the depth-first enumeration
  IntMat matrix;
  CandidateResult result;
  /// Cost-model estimate (unset without SearchOptions::cost, or when
  /// the estimate failed).
  std::optional<CostEstimate> cost;
  /// Tile plan for the generated program (unset without
  /// SearchOptions::tile, or when the candidate generated no code).
  std::optional<TilePlan> tile;
};

/// The single merge point for decided candidates: owns the
/// SearchResult and all its bookkeeping. Not thread-safe — the walk
/// and the post-walk merge both run on the calling thread, in
/// enumeration order, which is what makes results deterministic.
class CandidateAccumulator {
 public:
  /// `pos_to_slot` maps a layout position to its slot index (for
  /// converting a legality diagnostic's deciding row into a by_row
  /// bucket); `nslots` indexes the trailing completion bucket.
  CandidateAccumulator(size_t num_deps, int nslots,
                       std::vector<int> pos_to_slot,
                       const SearchOptions& sopts);

  SearchStats& stats() { return out_.stats; }

  /// A viable prefix at `depth` turned illegal: its whole subtree of
  /// `leaves` candidates is pruned, attributed to dependence `dep`
  /// decided at slot `row`.
  void prune_subtree(int dep, int row, i64 leaves);
  /// A viable prefix with an illegal completion died at the leaf.
  void prune_leaf(int dep);
  /// A candidate reached the leaf and will be decided and settled.
  void note_evaluated() { ++out_.stats.evaluated; }

  /// Merge one decided candidate: legal candidates feed the
  /// hit list (or the bounded best-K heap), the sink and the
  /// verification counters; rejected ones feed illegal_evaluated and
  /// the diagnostic-localized rejection provenance. Must be called in
  /// ascending index order — the (cost, index) tiebreak relies on it.
  void settle(Candidate&& c);

  /// Finalize (sorts the best-K heap by ascending cost, index) and
  /// move the result out.
  SearchResult take();

 private:
  void attribute(int dep, int row, i64 n);

  SearchResult out_;
  const SearchOptions& sopts_;
  std::vector<int> pos_to_slot_;
  int nslots_;
};

}  // namespace inlt
