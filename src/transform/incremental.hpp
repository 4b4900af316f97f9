// Incremental legality for candidate search.
//
// The Definition 6 hull test is a per-dependence walk of the projected
// vector P = (M·d) | common-loops. Each entry of P is one transformed
// row dotted with d, and the lex-status walk consumes entries outermost
// first — so legality can be decided *row by row* as a candidate matrix
// is built up. IncrementalLegality keeps that walk as a stack with one
// frame per pushed row: a depth-first search pushes a row, reads the
// verdict, descends or prunes, and pops, so every prefix is decided
// once and its siblings start from the same parent frame. Two
// properties the search driver exploits:
//
//  * Early rejection is final: once a dependence's walk hits a
//    definitely-negative (or undecidable) entry, no extension of the
//    prefix can recover — the whole subtree of candidates below the
//    prefix is illegal and can be pruned.
//  * Dependences are tested in move-to-front order: the dependence
//    that most recently killed a candidate is tried first, so typical
//    sweeps reject a dead prefix after one dot product.
//
// Scope: the engine models candidates that preserve the AST shape —
// square matrices whose edge rows are identity rows. For those,
// NewAST recovers the source tree with children in source order, so
// the target program's common-loop positions and syntactic order equal
// the source's, and the engine's verdict coincides exactly with
// check_legality. For matrices the engine accepts but recover_ast
// rejects as non-block-structured, rejection is still sound: such
// candidates fail evaluation anyway.
#pragma once

#include <cstdint>
#include <vector>

#include "dependence/analyzer.hpp"
#include "instance/layout.hpp"

namespace inlt {

class IncrementalLegality {
 public:
  /// Both references must outlive the engine.
  IncrementalLegality(const IvLayout& layout, const DependenceSet& deps);

  /// Number of loop rows a candidate supplies, in push order: slot s
  /// is the loop position all_loop_positions()[s], outermost first.
  int num_slots() const { return static_cast<int>(slots_.size()); }

  /// Push the full-width row for the next slot. Returns the viability
  /// of the new prefix: false means every completion is illegal.
  bool push_row(const IntVec& row);
  void pop_row();
  /// Rows currently pushed.
  int depth() const { return depth_; }
  bool prefix_viable() const { return frames_[depth_].viable; }
  /// Index of the dependence that killed the prefix (-1 if viable).
  int killer() const { return frames_[depth_].killer; }
  /// Slot (row) at which the prefix died (-1 if viable). Slots number
  /// pushed rows 0..num_slots()-1, outermost first.
  int killer_row() const { return frames_[depth_].killer_row; }

  /// On a complete, *viable* candidate: the first dependence whose
  /// zero projection is not acceptable (the provenance of a
  /// completion-time rejection). -1 when the candidate is legal, died
  /// earlier, or is not complete.
  int leaf_killer() const;

  /// Verdict for the complete candidate; requires depth()==num_slots().
  /// Equals check_legality(...).legal() for supported matrices.
  bool current_legal() const;

  /// Indices (into deps.deps, ascending) of self-dependences the
  /// current complete candidate leaves unsatisfied — matches
  /// LegalityResult::unsatisfied. Requires current_legal().
  std::vector<int> current_unsatisfied() const;

 private:
  // Automaton state of one dependence after consuming a row prefix;
  // mirrors the lex_status walk in direction.cpp.
  enum State : std::uint8_t {
    kRun = 0,     // all entries so far exactly zero
    kRunNonNeg,   // saw a non-negative (possibly-zero) entry
    kAccept,      // definitely positive: satisfied, final
    kReject,      // definitely negative or undecidable: final
  };

  // The walk after one row prefix.
  struct Frame {
    // Per-dependence states, in dependence-set order. Meaningful only
    // while the frame is viable.
    std::vector<std::uint8_t> states;
    bool viable = true;
    int killer = -1;
    // Slot index of the row that killed the prefix (-1 while viable);
    // inherited by extensions of a dead prefix.
    int killer_row = -1;
  };

  State step(State s, const DepEntry& e) const;

  const IvLayout& layout_;
  const DependenceSet& deps_;
  std::vector<int> slots_;  // loop positions, ascending (outermost first)
  // Per dependence d, per slot s: does slot s's position belong to the
  // common loops of d's statement pair?
  std::vector<std::vector<std::uint8_t>> in_common_;
  // Zero/non-negative final projection acceptable? (self-dependence —
  // left unsatisfied — or source syntactically before destination.)
  std::vector<std::uint8_t> zero_ok_;
  // Self-dependence flag, for current_unsatisfied().
  std::vector<std::uint8_t> is_self_;
  // Move-to-front testing order over dependence indices.
  std::vector<int> order_;

  // frames_[0] is the empty prefix; frames_[depth_] the current one.
  // Sized num_slots()+1 up front, so a push reuses its frame's storage.
  std::vector<Frame> frames_;
  int depth_ = 0;
};

}  // namespace inlt
