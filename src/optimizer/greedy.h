#ifndef FUSION_OPTIMIZER_GREEDY_H_
#define FUSION_OPTIMIZER_GREEDY_H_

#include "optimizer/optimizer.h"

namespace fusion {

/// How the greedy optimizers pick the condition ordering without SJ/SJA's
/// exhaustive O(2^m·m·n) subset search (the extended version [24] of the
/// paper describes O(mn) greedy variants of SJ/SJA; the TR is unavailable,
/// so these are our documented reconstructions — see DESIGN.md §3).
enum class GreedyOrderHeuristic {
  /// Static: process conditions by increasing estimated global result size
  /// |∪_j sq(c_i, R_j)| (most selective first), computed once. O(mn + m log m)
  /// ordering cost; the per-source decisions then cost O(mn).
  kBySelectivity,
  /// Adaptive: at each step pick the unprocessed condition whose evaluation
  /// (per-source best of sq/sjq given the current X estimate) is cheapest.
  /// O(m²n) — still polynomial, no factorial.
  kByMinCost,
};

const char* GreedyOrderHeuristicName(GreedyOrderHeuristic h);

/// Greedy SJA: one ordering chosen by `heuristic`, then SJA's independent
/// per-source sq/sjq decisions along it.
Result<OptimizedPlan> OptimizeGreedySja(const CostModel& model,
                                        GreedyOrderHeuristic heuristic);

/// Greedy SJ: same orderings, but the per-condition decision is uniform
/// across sources as in SJ.
Result<OptimizedPlan> OptimizeGreedySj(const CostModel& model,
                                       GreedyOrderHeuristic heuristic);

}  // namespace fusion

#endif  // FUSION_OPTIMIZER_GREEDY_H_
