#ifndef FUSION_OPTIMIZER_SJ_H_
#define FUSION_OPTIMIZER_SJ_H_

#include "optimizer/optimizer.h"

namespace fusion {

/// The SJ algorithm (Figure 3): finds the best semijoin plan over every
/// ordering of the m conditions. The first condition is evaluated by
/// selection queries; then, condition by condition, the total cost of n
/// selection queries is compared against the total cost of n semijoin
/// queries on X_{i-1}, taking the cheaper *uniformly across sources*.
/// Figure 3 enumerates the m! orderings; since a round's cost depends only on
/// the set of conditions already applied, this implementation searches the
/// 2^m condition subsets instead (shared with SJA in optimizer.cc), in
/// O(2^m · m · n), and returns the same plan: the lexicographically first
/// cheapest ordering. Refuses m > kMaxConditionsForExhaustive.
Result<OptimizedPlan> OptimizeSj(const CostModel& model);

}  // namespace fusion

#endif  // FUSION_OPTIMIZER_SJ_H_
