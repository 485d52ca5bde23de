// E3 — optimizer running time (google-benchmark): FILTER/SJ/SJA are linear
// in the number of sources n; SJ/SJA grow as 2^m in the number of
// conditions m (a shortest path over condition subsets, not the paper's m!
// enumeration), under scalar and exact (ItemSet) estimates alike; the greedy
// variants stay polynomial in m; SJA+'s postoptimization adds only O(mn).
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "cost/oracle_cost_model.h"
#include "cost/parametric_cost_model.h"
#include "optimizer/filter.h"
#include "optimizer/greedy.h"
#include "optimizer/postopt.h"
#include "optimizer/sj.h"
#include "optimizer/sja.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

ParametricCostModel MakeModel(size_t m, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<SourceParams> params;
  params.reserve(n);
  for (size_t j = 0; j < n; ++j) {
    SourceParams p;
    p.capabilities.semijoin = rng.Bernoulli(0.7)
                                  ? SemijoinSupport::kNative
                                  : SemijoinSupport::kPassedBindingsOnly;
    p.network.query_overhead = 1 + rng.NextDouble() * 20;
    p.network.cost_per_item_sent = 0.2 + rng.NextDouble();
    p.network.cost_per_item_received = 0.2 + rng.NextDouble();
    p.cardinality = static_cast<double>(rng.Uniform(100, 5000));
    for (size_t i = 0; i < m; ++i) {
      p.result_size.push_back(p.cardinality *
                              (0.01 + rng.NextDouble() * 0.4));
    }
    params.push_back(std::move(p));
  }
  return ParametricCostModel(std::move(params), 10000);
}

void BM_FilterVsSources(benchmark::State& state) {
  const ParametricCostModel model =
      MakeModel(3, static_cast<size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeFilter(model));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_FilterVsSources)->RangeMultiplier(4)->Range(2, 4096)->Complexity(
    benchmark::oN);

void BM_SjaVsSources(benchmark::State& state) {
  const ParametricCostModel model =
      MakeModel(3, static_cast<size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeSja(model));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SjaVsSources)->RangeMultiplier(4)->Range(2, 4096)->Complexity(
    benchmark::oN);

void BM_SjVsSources(benchmark::State& state) {
  const ParametricCostModel model =
      MakeModel(3, static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeSj(model));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SjVsSources)->RangeMultiplier(4)->Range(2, 4096)->Complexity(
    benchmark::oN);

void BM_SjaVsConditions(benchmark::State& state) {
  const ParametricCostModel model =
      MakeModel(static_cast<size_t>(state.range(0)), 16, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeSja(model));
  }
}
BENCHMARK(BM_SjaVsConditions)->DenseRange(2, 9, 1);

// The same curve under exact estimates — the oracle statistics `fusionq`
// plans with by default — where every round result is a real ItemSet.
void BM_SjaExactVsConditions(benchmark::State& state) {
  SyntheticSpec spec;
  spec.universe_size = 20000;
  spec.num_sources = 8;
  spec.num_conditions = static_cast<size_t>(state.range(0));
  spec.selectivity_default = 0.3;
  spec.seed = 8;
  const auto instance = GenerateSynthetic(spec);
  if (!instance.ok()) {
    state.SkipWithError("synthetic instance failed");
    return;
  }
  const auto model =
      OracleCostModel::Create(instance->simulated, instance->query);
  if (!model.ok()) {
    state.SkipWithError("oracle model failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimizeSja(*model));
  }
}
BENCHMARK(BM_SjaExactVsConditions)
    ->DenseRange(2, 9, 1)
    ->Unit(benchmark::kMillisecond);

void BM_GreedySjaVsConditions(benchmark::State& state) {
  const ParametricCostModel model =
      MakeModel(static_cast<size_t>(state.range(0)), 16, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OptimizeGreedySja(model, GreedyOrderHeuristic::kByMinCost));
  }
}
BENCHMARK(BM_GreedySjaVsConditions)->DenseRange(2, 12, 2);

void BM_GreedySelectivityVsConditions(benchmark::State& state) {
  const ParametricCostModel model =
      MakeModel(static_cast<size_t>(state.range(0)), 16, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        OptimizeGreedySja(model, GreedyOrderHeuristic::kBySelectivity));
  }
}
BENCHMARK(BM_GreedySelectivityVsConditions)->DenseRange(2, 12, 2);

void BM_SjaPlusPostoptOverhead(benchmark::State& state) {
  // Isolates the postoptimization pass: O(mn) on top of a precomputed SJA
  // structure.
  const ParametricCostModel model =
      MakeModel(4, static_cast<size_t>(state.range(0)), 7);
  const auto sja = OptimizeSja(model);
  if (!sja.ok()) {
    state.SkipWithError("sja failed");
    return;
  }
  PostOptOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PostOptimizeStructure(model, sja->structure, options, "SJA"));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SjaPlusPostoptOverhead)
    ->RangeMultiplier(4)
    ->Range(2, 1024)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace fusion

BENCHMARK_MAIN();
