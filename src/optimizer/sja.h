#ifndef FUSION_OPTIMIZER_SJA_H_
#define FUSION_OPTIMIZER_SJA_H_

#include "optimizer/optimizer.h"

namespace fusion {

/// The SJA algorithm (Figure 4): like SJ it searches every condition
/// ordering, but inside each round it decides *independently per source*
/// whether to evaluate the condition by a selection query or a semijoin
/// query — the "source loop". This finds the optimal semijoin-adaptive plan
/// (a space of O(m!·2^{n(m-2)}) plans), because per-source choices are
/// independent given X_{i-1} under the additive cost model. Figure 4
/// enumerates the m! orderings in O(m!·m·n); this implementation runs the
/// shortest path over the 2^m condition subsets it shares with SJ
/// (optimizer.cc) in O(2^m·m·n), returning the lexicographically first
/// cheapest ordering. Refuses m > kMaxConditionsForExhaustive (use the greedy
/// variants).
Result<OptimizedPlan> OptimizeSja(const CostModel& model);

}  // namespace fusion

#endif  // FUSION_OPTIMIZER_SJA_H_
