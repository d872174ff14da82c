// Canonical winner fold for multi-trial FM refinement (DESIGN.md §16).
//
// Each uncoarsening level may run several independent FM trials from the
// same projected assignment (partitioner.cc); the fold below decides which
// trial's result the bisection adopts. It is a serial left-fold over
// ascending trial ids with the same (violation, cut) preference the
// initial-partition trials use (FmOutcomeBeats), so the chosen trial is a
// pure function of the trial outcomes — invariant to completion order,
// thread count, and scheduling (DESIGN.md §9).
#pragma once

#include <cstddef>
#include <span>

namespace gl {

// Outcome of one FM trial, indexed by trial id.
struct FmTrialOutcome {
  double violation = 0.0;  // balance-bounds distance (0 = feasible)
  double cut = 0.0;
};

// The one fold rule: `a` replaces the incumbent `b` when its balance
// violation is smaller by more than `tol`, or when it is no worse than
// `tol` and its cut is smaller by more than `tol`.
[[nodiscard]] inline bool FmOutcomeBeats(const FmTrialOutcome& a,
                                         const FmTrialOutcome& b,
                                         double tol = 1e-12) {
  return a.violation < b.violation - tol ||
         (a.violation <= b.violation + tol && a.cut < b.cut - tol);
}

// Index of the canonical winner under FmOutcomeBeats; ties keep the
// smallest trial id. `trials` must be non-empty.
[[nodiscard]] inline std::size_t PickFmWinner(
    std::span<const FmTrialOutcome> trials) {
  std::size_t best = 0;
  for (std::size_t t = 1; t < trials.size(); ++t) {
    if (FmOutcomeBeats(trials[t], trials[best])) best = t;
  }
  return best;
}

}  // namespace gl
