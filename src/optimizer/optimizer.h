#ifndef FUSION_OPTIMIZER_OPTIMIZER_H_
#define FUSION_OPTIMIZER_OPTIMIZER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "obs/trace.h"
#include "plan/classifier.h"
#include "plan/plan.h"

namespace fusion {

/// RAII observability for one optimizer algorithm run: an `optimize` span
/// covering the search, carrying how many candidate plans were considered
/// (SJ/SJA's (subset, next condition) transitions, SJA-RT's orderings, greedy
/// candidate evaluations, postopt variants), which also feeds the
/// optimizer_plans_considered counter. Counting happens whether or not
/// tracing is enabled.
class OptimizerRunSpan {
 public:
  explicit OptimizerRunSpan(const char* algorithm);
  ~OptimizerRunSpan();

  OptimizerRunSpan(const OptimizerRunSpan&) = delete;
  OptimizerRunSpan& operator=(const OptimizerRunSpan&) = delete;

  void CountPlan(size_t n = 1) { plans_considered_ += n; }

 private:
  ScopedSpan span_;
  size_t plans_considered_ = 0;
};

/// The structure of a condition-at-a-time plan: the order in which conditions
/// are processed and, for every non-first condition and every source, whether
/// that (condition, source) pair is evaluated by a semijoin query (true) or a
/// selection query (false). This is the search space of SJ (uniform rows) and
/// SJA (free rows); SJA+ reuses it as the skeleton it postoptimizes.
struct ConditionOrderPlan {
  /// ordering[i] = original index of the condition processed i-th.
  std::vector<size_t> ordering;
  /// use_semijoin[i][j]: evaluate condition ordering[i] at source j by sjq.
  /// Row 0 is all-false by construction (the first condition is always
  /// evaluated by selection queries).
  std::vector<std::vector<bool>> use_semijoin;
};

/// An optimizer's output: the plan, the estimated cost under the model it
/// was given, its class, and (for condition-at-a-time algorithms) the
/// structure that produced it.
struct OptimizedPlan {
  Plan plan;
  double estimated_cost = 0.0;
  std::string algorithm;
  PlanClass plan_class = PlanClass::kFilter;
  ConditionOrderPlan structure;  // empty for FILTER / baseline plans
};

/// Limit on the exhaustive searches. SJ/SJA search the 2^m condition subsets
/// (m·2^(m−1) transitions) and SJA-RT enumerates all m! orderings; beyond
/// `kMaxConditionsForExhaustive` conditions they refuse (use the greedy
/// variants instead).
inline constexpr size_t kMaxConditionsForExhaustive = 9;

/// Materializes a ConditionOrderPlan into an executable Plan (paper-style
/// variable names) and computes its estimated cost and per-source query cost
/// totals under `model`.
///
/// `loaded[j]` (optional, may be empty = none) marks sources replaced by an
/// upfront lq + free local selection (SJA+ loading). `use_difference`
/// enables semijoin-set pruning with set difference (SJA+): within each
/// round, free/local and selection results arrive first, then semijoin
/// queries run sequentially, each shipping only the candidates not yet
/// confirmed for this round's condition.
struct StructuredBuildResult {
  Plan plan;
  double total_cost = 0.0;
  /// Estimated cost attributable to each source's queries (lq included).
  std::vector<double> per_source_cost;
  SetEstimate result;
};

Result<StructuredBuildResult> BuildStructuredPlan(
    const CostModel& model, const ConditionOrderPlan& structure,
    const std::vector<bool>& loaded, bool use_difference,
    bool order_semijoins_by_yield = false);

/// Convenience: all-false decision matrix rows for a given ordering size.
ConditionOrderPlan MakeStructure(std::vector<size_t> ordering, size_t num_sources);

/// The decision-independent estimate of the round result
/// X_i = X_{i-1} ∩ (∪_j sq-result(cond, R_j)) — pass `prev = nullptr` for the
/// first round (no intersection). This canonical form is what the searches
/// and the structured builder all propagate: the true X_i does not depend on
/// whether a source was asked by sq or sjq, and keeping the estimate
/// decision-independent is what makes SJA's per-source choices globally
/// optimal under scalar (independence) estimation too. It is also what lets
/// SJ/SJA search condition subsets instead of orderings: a round's cost
/// depends only on the set of conditions already applied and the next one.
SetEstimate CanonicalRoundResult(const CostModel& model, size_t cond,
                                 const SetEstimate* prev);

}  // namespace fusion

#endif  // FUSION_OPTIMIZER_OPTIMIZER_H_
