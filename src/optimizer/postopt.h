#ifndef FUSION_OPTIMIZER_POSTOPT_H_
#define FUSION_OPTIMIZER_POSTOPT_H_

#include "optimizer/optimizer.h"

namespace fusion {

/// Which Section-4 postoptimization techniques SJA+ applies. Both default
/// on; benches toggle them individually for the ablation study.
struct PostOptOptions {
  /// Prune semijoin sets with set difference: within each round, results
  /// already confirmed for the round's condition (by local evaluation or
  /// selection queries, or by earlier semijoin queries in the round) are not
  /// re-shipped to later semijoin sources.
  bool use_difference = true;
  /// Replace all queries to a source by one lq + free local evaluation when
  /// the load is estimated cheaper than the source's combined query cost.
  bool use_loading = true;
  /// Extension beyond the paper (in the spirit of [24]'s further
  /// postoptimizations): within a difference-pruned round, query the
  /// semijoin sources in descending expected-yield order so later sources
  /// receive maximally pruned sets. Off by default to keep SJA+ faithful to
  /// Section 4; bench_postopt ablates it.
  bool order_semijoins_by_yield = false;
};

/// The SJA+ algorithm (Section 4.1): run SJA for the best semijoin-adaptive
/// plan, then apply difference pruning to every semijoin round and finally
/// consider loading entire sources. O(2^m·m·n + mn); the produced plan is
/// generally outside the space of simple plans.
Result<OptimizedPlan> OptimizeSjaPlus(const CostModel& model,
                                      const PostOptOptions& options = {});

/// Applies the same postoptimization to an existing condition-at-a-time
/// structure (e.g. a greedy SJA result), so greedy + postopt composes.
Result<OptimizedPlan> PostOptimizeStructure(const CostModel& model,
                                            const ConditionOrderPlan& structure,
                                            const PostOptOptions& options,
                                            const std::string& base_algorithm);

}  // namespace fusion

#endif  // FUSION_OPTIMIZER_POSTOPT_H_
