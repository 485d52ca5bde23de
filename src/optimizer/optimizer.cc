#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "optimizer/sj.h"
#include "optimizer/sja.h"

namespace fusion {

OptimizerRunSpan::OptimizerRunSpan(const char* algorithm)
    : span_(SpanCategory::kOptimize, algorithm) {}

OptimizerRunSpan::~OptimizerRunSpan() {
  span_.AddAttr("plans_considered", plans_considered_);
  static Counter& considered = MetricsRegistry::Global().counter(
      metrics::kOptimizerPlansConsidered);
  considered.Increment(plans_considered_);
}

ConditionOrderPlan MakeStructure(std::vector<size_t> ordering,
                                 size_t num_sources) {
  ConditionOrderPlan out;
  out.use_semijoin.assign(ordering.size(),
                          std::vector<bool>(num_sources, false));
  out.ordering = std::move(ordering);
  return out;
}

SetEstimate CanonicalRoundResult(const CostModel& model, size_t cond,
                                 const SetEstimate* prev) {
  SetEstimate u;
  bool first = true;
  for (size_t j = 0; j < model.num_sources(); ++j) {
    const SetEstimate r = model.SqResult(cond, j);
    u = first ? r : UnionEstimate(u, r, model.universe_size());
    first = false;
  }
  if (prev == nullptr) return u;
  return IntersectEstimate(*prev, u, model.universe_size());
}

Result<StructuredBuildResult> BuildStructuredPlan(
    const CostModel& model, const ConditionOrderPlan& structure,
    const std::vector<bool>& loaded, bool use_difference,
    bool order_semijoins_by_yield) {
  const size_t m = structure.ordering.size();
  const size_t n = model.num_sources();
  if (m == 0) return Status::InvalidArgument("empty condition ordering");
  if (m != model.num_conditions()) {
    return Status::InvalidArgument(
        StrFormat("ordering covers %zu conditions, model has %zu", m,
                  model.num_conditions()));
  }
  if (structure.use_semijoin.size() != m) {
    return Status::InvalidArgument("decision matrix has wrong row count");
  }
  for (const auto& row : structure.use_semijoin) {
    if (row.size() != n) {
      return Status::InvalidArgument("decision matrix has wrong column count");
    }
  }
  {
    std::vector<bool> seen(m, false);
    for (size_t c : structure.ordering) {
      if (c >= m || seen[c]) {
        return Status::InvalidArgument("ordering is not a permutation");
      }
      seen[c] = true;
    }
  }
  for (size_t j = 0; j < n; ++j) {
    if (structure.use_semijoin[0][j]) {
      return Status::InvalidArgument(
          "first condition must be evaluated by selection queries");
    }
  }
  const std::vector<bool> no_loads(n, false);
  const std::vector<bool>& is_loaded = loaded.empty() ? no_loads : loaded;
  if (is_loaded.size() != n) {
    return Status::InvalidArgument("loaded mask has wrong size");
  }

  Plan plan;
  StructuredBuildResult out;
  out.per_source_cost.assign(n, 0.0);
  auto charge = [&](size_t source, double cost) {
    out.total_cost += cost;
    out.per_source_cost[source] += cost;
  };

  // Load ops come first (SJA+ loading): Y_j := lq(R_j).
  std::vector<int> loaded_var(n, -1);
  for (size_t j = 0; j < n; ++j) {
    if (is_loaded[j]) {
      loaded_var[j] =
          plan.EmitLoad(static_cast<int>(j), StrFormat("Y%zu", j + 1));
      charge(j, model.LqCost(j));
    }
  }

  int prev = -1;         // variable holding X_{i-1}
  SetEstimate x;         // canonical estimate of X_{i-1}
  for (size_t i = 0; i < m; ++i) {
    const size_t cond = structure.ordering[i];
    const int cond_id = static_cast<int>(cond);
    std::vector<int> immediate;  // results available without shipping X
    std::vector<SetEstimate> immediate_est;
    std::vector<size_t> sjq_sources;
    for (size_t j = 0; j < n; ++j) {
      if (is_loaded[j]) {
        immediate.push_back(plan.EmitLocalSelect(
            cond_id, loaded_var[j], StrFormat("X%zu%zu", i + 1, j + 1)));
        immediate_est.push_back(model.SqResult(cond, j));  // free
      } else if (i > 0 && structure.use_semijoin[i][j]) {
        sjq_sources.push_back(j);
      } else {
        immediate.push_back(plan.EmitSelect(
            cond_id, static_cast<int>(j), StrFormat("X%zu%zu", i + 1, j + 1)));
        immediate_est.push_back(model.SqResult(cond, j));
        charge(j, model.SqCost(cond, j));
      }
    }

    int round_var = -1;
    if (i == 0) {
      // X_1 := union of all first-round results.
      round_var = immediate.size() == 1
                      ? immediate[0]
                      : plan.EmitUnion(immediate, StrFormat("X%zu", i + 1));
    } else if (!use_difference || sjq_sources.empty()) {
      // Standard SJA shape: per-source results, then
      // X_i := X_{i-1} ∩ (∪_j X_ij); pure-semijoin rounds skip the
      // intersection because every result is already a subset of X_{i-1}.
      std::vector<int> results = immediate;
      for (size_t j : sjq_sources) {
        results.push_back(
            plan.EmitSemiJoin(cond_id, static_cast<int>(j), prev,
                              StrFormat("X%zu%zu", i + 1, j + 1)));
        charge(j, model.SjqCost(cond, j, x));
      }
      if (immediate.empty()) {
        round_var = results.size() == 1
                        ? results[0]
                        : plan.EmitUnion(results, StrFormat("X%zu", i + 1));
      } else {
        const int u = results.size() == 1
                          ? results[0]
                          : plan.EmitUnion(results, StrFormat("U%zu", i + 1));
        round_var = plan.EmitIntersect({prev, u}, StrFormat("X%zu", i + 1));
      }
    } else {
      // SJA+ difference pruning: confirmed items need not be re-shipped.
      if (order_semijoins_by_yield && sjq_sources.size() > 1) {
        // Query high-yield sources first so later semijoins ship less
        // (an extension beyond the paper's index-order pruning; the
        // bench_postopt ablation quantifies it).
        std::stable_sort(sjq_sources.begin(), sjq_sources.end(),
                         [&](size_t a, size_t b) {
                           return model.SjqResult(cond, a, x).size >
                                  model.SjqResult(cond, b, x).size;
                         });
      }
      std::vector<int> parts;
      int pending = prev;
      SetEstimate pending_est = x;
      if (!immediate.empty()) {
        SetEstimate u_imm = immediate_est[0];
        for (size_t k = 1; k < immediate_est.size(); ++k) {
          u_imm = UnionEstimate(u_imm, immediate_est[k],
                                model.universe_size());
        }
        const int u = immediate.size() == 1
                          ? immediate[0]
                          : plan.EmitUnion(immediate, StrFormat("U%zu", i + 1));
        const int confirmed =
            plan.EmitIntersect({prev, u}, StrFormat("C%zu", i + 1));
        parts.push_back(confirmed);
        const SetEstimate confirmed_est =
            IntersectEstimate(x, u_imm, model.universe_size());
        pending = plan.EmitDifference(prev, confirmed,
                                      StrFormat("P%zu", i + 1));
        pending_est =
            DifferenceEstimate(x, confirmed_est, model.universe_size());
      }
      for (size_t k = 0; k < sjq_sources.size(); ++k) {
        const size_t j = sjq_sources[k];
        const int y =
            plan.EmitSemiJoin(cond_id, static_cast<int>(j), pending,
                              StrFormat("X%zu%zu", i + 1, j + 1));
        charge(j, model.SjqCost(cond, j, pending_est));
        parts.push_back(y);
        if (k + 1 < sjq_sources.size()) {
          const SetEstimate y_est = model.SjqResult(cond, j, pending_est);
          pending = plan.EmitDifference(pending, y,
                                        StrFormat("P%zu_%zu", i + 1, k + 2));
          pending_est =
              DifferenceEstimate(pending_est, y_est, model.universe_size());
        }
      }
      // Every part is a subset of X_{i-1}; their union is X_i.
      round_var = parts.size() == 1
                      ? parts[0]
                      : plan.EmitUnion(parts, StrFormat("X%zu", i + 1));
    }
    prev = round_var;
    // Canonical (decision-independent) estimate of X_i: the true semantics
    // is X_i = X_{i-1} ∩ (∪_j items satisfying c at R_j) no matter how each
    // source was queried. Using this canonical form keeps per-source sq/sjq
    // choices independent of one another under scalar estimation, which is
    // what makes SJA's source loop optimal (verified against brute force).
    x = CanonicalRoundResult(model, cond, i == 0 ? nullptr : &x);
  }
  plan.SetResult(prev);
  FUSION_RETURN_IF_ERROR(plan.Validate(m, n));

  out.result = std::move(x);
  out.plan = std::move(plan);
  return out;
}

namespace {

/// How SJ and SJA decide one round given X_{i-1}; the only difference
/// between the two algorithms.
enum class RoundRule {
  kUniformRow,  // SJ: the whole row takes the cheaper of Σ_j sq and Σ_j sjq
  kPerSource,   // SJA: each source takes the cheaper of sq and sjq
};

/// Estimated costs this close (relative) count as equal, so which of two
/// equally cheap orderings wins does not depend on summation-order noise.
constexpr double kCostTieRelative = 1e-12;

bool CostsTie(double a, double b) {
  if (a == b) return true;
  if (!std::isfinite(a) || !std::isfinite(b)) return false;
  return std::abs(a - b) <=
         kCostTieRelative * std::max(std::abs(a), std::abs(b));
}

/// The cost of evaluating `cond` after the round result `x` (nullptr for the
/// first round, which always runs selection queries). When `row` is given,
/// records which sources take the semijoin; ties go to the semijoin.
double PriceRound(const CostModel& model, RoundRule rule, size_t cond,
                  const SetEstimate* x, std::vector<bool>* row) {
  const size_t n = model.num_sources();
  double sq_total = 0.0;
  if (x == nullptr) {
    for (size_t j = 0; j < n; ++j) sq_total += model.SqCost(cond, j);
    return sq_total;
  }
  if (rule == RoundRule::kPerSource) {
    double total = 0.0;
    for (size_t j = 0; j < n; ++j) {
      const double sq_cost = model.SqCost(cond, j);
      const double sjq_cost = model.SjqCost(cond, j, *x);
      const bool semijoin = !(sq_cost < sjq_cost);
      if (row != nullptr) (*row)[j] = semijoin;
      total += semijoin ? sjq_cost : sq_cost;
    }
    return total;
  }
  double sjq_total = 0.0;
  for (size_t j = 0; j < n; ++j) {
    sq_total += model.SqCost(cond, j);
    sjq_total += model.SjqCost(cond, j, *x);
  }
  const bool semijoin = !(sq_total < sjq_total);
  if (row != nullptr) row->assign(n, semijoin);
  return semijoin ? sjq_total : sq_total;
}

/// The cheapest condition ordering under `rule`, as a forward shortest path
/// over the lattice of condition subsets: by invariant 3 a round's cost
/// depends only on the set S of conditions already applied (through X(S))
/// and on the next condition, so O(2^m·m·n) work replaces the paper's
/// O(m!·m·n) enumeration. Among equally cheap orderings the lexicographically
/// first wins — the one the enumeration's first strict minimum picks.
std::vector<size_t> CheapestOrdering(const CostModel& model, RoundRule rule,
                                     OptimizerRunSpan& run_span) {
  const size_t m = model.num_conditions();
  const uint32_t full = (uint32_t{1} << m) - 1;
  // best[S]: the cheapest cost of applying the conditions of S first;
  // order[S*m ..]: the lexicographically first ordering of S reaching it.
  std::vector<double> best(full + 1, std::numeric_limits<double>::infinity());
  std::vector<char> reached(full + 1, 0);
  std::vector<uint8_t> order(static_cast<size_t>(full + 1) * m, 0);
  best[0] = 0.0;
  reached[0] = 1;

  std::vector<std::vector<uint32_t>> levels(m + 1);
  for (uint32_t s = 0; s <= full; ++s) {
    levels[std::popcount(s)].push_back(s);
  }
  // X(S), computed once per subset with S's conditions applied in ascending
  // index order. Only two adjacent levels hold a set at any time, which
  // bounds peak memory under exact (ItemSet) estimates.
  std::vector<SetEstimate> x(full + 1);
  uint8_t candidate[kMaxConditionsForExhaustive];
  for (size_t k = 0; k < m; ++k) {
    for (uint32_t s : levels[k]) {
      const SetEstimate* xs = s == 0 ? nullptr : &x[s];
      std::copy_n(&order[s * m], k, candidate);
      for (size_t c = 0; c < m; ++c) {
        const uint32_t t = s | (uint32_t{1} << c);
        if (t == s) continue;
        run_span.CountPlan();
        const double cost = best[s] + PriceRound(model, rule, c, xs, nullptr);
        candidate[k] = static_cast<uint8_t>(c);
        uint8_t* incumbent = &order[t * m];
        const bool take =
            !reached[t] ||
            (CostsTie(cost, best[t])
                 ? std::lexicographical_compare(candidate, candidate + k + 1,
                                                incumbent, incumbent + k + 1)
                 : cost < best[t]);
        if (take) {
          best[t] = cost;
          reached[t] = 1;
          std::copy_n(candidate, k + 1, incumbent);
        }
      }
    }
    if (k + 1 < m) {
      for (uint32_t t : levels[k + 1]) {
        const size_t hi = std::bit_width(t) - 1;
        const uint32_t rest = t & ~(uint32_t{1} << hi);
        x[t] = CanonicalRoundResult(model, hi, rest == 0 ? nullptr : &x[rest]);
      }
    }
    for (uint32_t s : levels[k]) x[s] = SetEstimate();
  }
  return std::vector<size_t>(order.begin() + full * m,
                             order.begin() + (full + 1) * m);
}

/// SJ and SJA: the cheapest ordering, its decision matrix rebuilt along it,
/// materialized by BuildStructuredPlan.
Result<OptimizedPlan> OptimizeConditionOrder(const CostModel& model,
                                             RoundRule rule,
                                             const char* algorithm) {
  const size_t m = model.num_conditions();
  const size_t n = model.num_sources();
  if (m == 0 || n == 0) {
    return Status::InvalidArgument(
        StrFormat("%s: need conditions and sources", algorithm));
  }
  if (m > kMaxConditionsForExhaustive) {
    return Status::InvalidArgument(StrFormat(
        "%s: %zu conditions exceeds the exhaustive-search limit %zu; use "
        "the greedy optimizer",
        algorithm, m, kMaxConditionsForExhaustive));
  }

  OptimizerRunSpan run_span(algorithm);
  ConditionOrderPlan structure =
      MakeStructure(CheapestOrdering(model, rule, run_span), n);
  SetEstimate x = CanonicalRoundResult(model, structure.ordering[0], nullptr);
  for (size_t i = 1; i < m; ++i) {
    const size_t cond = structure.ordering[i];
    PriceRound(model, rule, cond, &x, &structure.use_semijoin[i]);
    if (i + 1 < m) x = CanonicalRoundResult(model, cond, &x);
  }

  FUSION_ASSIGN_OR_RETURN(
      StructuredBuildResult built,
      BuildStructuredPlan(model, structure, /*loaded=*/{},
                          /*use_difference=*/false));
  OptimizedPlan out;
  out.plan = std::move(built.plan);
  out.estimated_cost = built.total_cost;
  out.algorithm = algorithm;
  out.plan_class = ClassifyPlan(out.plan);
  out.structure = std::move(structure);
  return out;
}

}  // namespace

Result<OptimizedPlan> OptimizeSj(const CostModel& model) {
  return OptimizeConditionOrder(model, RoundRule::kUniformRow, "SJ");
}

Result<OptimizedPlan> OptimizeSja(const CostModel& model) {
  return OptimizeConditionOrder(model, RoundRule::kPerSource, "SJA");
}

}  // namespace fusion
