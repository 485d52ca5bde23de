// E10 — response time under parallel execution (the future-work direction
// named in the paper's conclusion): compares the total-work-optimal plans
// (FILTER/SJA/SJA+) against the response-time-oriented SJA-RT on both
// objectives, showing (a) the work/latency trade-off — semijoin chains and
// difference pruning serialize — and (b) SJA-RT's optimality gap against the
// RT brute force on small instances.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "mediator/session.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"
#include "workload/dmv.h"
#include "optimizer/brute_force.h"
#include "optimizer/filter.h"
#include "optimizer/postopt.h"
#include "optimizer/sja.h"
#include "optimizer/sja_rt.h"
#include "plan/response_time.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

struct Row {
  double work = 0;
  double rt = 0;
};

Row Score(const Result<OptimizedPlan>& opt, const OracleCostModel& model) {
  FUSION_CHECK(opt.ok()) << opt.status().ToString();
  const auto rt = EstimateResponseTime(opt->plan, model);
  FUSION_CHECK(rt.ok()) << rt.status().ToString();
  return {rt->total_work, rt->response_time};
}

void TradeOffSweep() {
  // Five conditions give the work-optimal SJA a four-link semijoin chain —
  // cheap in total work, long in latency. The RT objective breaks the chain.
  bench::Banner("E10a: total work vs response time by optimizer (n=6, m=5)");
  std::printf("%6s | %10s %10s | %10s %10s | %10s %10s | %10s %10s\n", "seed",
              "FILTER wk", "FILTER rt", "SJA wk", "SJA rt", "SJA+ wk",
              "SJA+ rt", "SJA-RT wk", "SJA-RT rt");
  double sja_rt_sum = 0, rt_rt_sum = 0;
  for (uint64_t seed = 0; seed < 8; ++seed) {
    SyntheticSpec spec;
    spec.universe_size = 1500;
    spec.num_sources = 6;
    spec.num_conditions = 5;
    spec.coverage = 0.4;
    spec.selectivity = {0.03, 0.25, 0.25, 0.25, 0.25};
    spec.selectivity_jitter = 0.6;
    spec.frac_native_semijoin = 0.8;
    spec.frac_passed_bindings = 0.2;
    spec.seed = 700 + seed;
    auto instance = GenerateSynthetic(spec);
    FUSION_CHECK(instance.ok());
    const OracleCostModel model = bench::MakeOracle(*instance);

    const Row filter = Score(OptimizeFilter(model), model);
    const Row sja = Score(OptimizeSja(model), model);
    const Row plus = Score(OptimizeSjaPlus(model), model);
    const Row rt = Score(OptimizeSjaResponseTime(model), model);
    sja_rt_sum += sja.rt;
    rt_rt_sum += rt.rt;
    std::printf(
        "%6zu | %10.0f %10.0f | %10.0f %10.0f | %10.0f %10.0f | %10.0f "
        "%10.0f\n",
        seed, filter.work, filter.rt, sja.work, sja.rt, plus.work, plus.rt,
        rt.work, rt.rt);
  }
  std::printf("\nmean RT: SJA %.0f vs SJA-RT %.0f (%.1f%% lower latency, "
              "paid for with extra total work; SJA+'s pruning chains are the "
              "slowest of all)\n",
              sja_rt_sum / 8, rt_rt_sum / 8,
              100 * (1 - rt_rt_sum / sja_rt_sum));
}

void HeuristicGap() {
  bench::Banner("E10b: SJA-RT heuristic vs RT brute force (n=3, m=3)");
  int exact = 0;
  double worst = 1.0;
  constexpr int kInstances = 40;
  for (uint64_t seed = 0; seed < kInstances; ++seed) {
    SyntheticSpec spec;
    spec.universe_size = 400;
    spec.num_sources = 3;
    spec.num_conditions = 3;
    spec.selectivity_jitter = 0.8;
    spec.frac_native_semijoin = 0.7;
    spec.frac_passed_bindings = 0.3;
    spec.seed = 900 + seed;
    auto instance = GenerateSynthetic(spec);
    FUSION_CHECK(instance.ok());
    const OracleCostModel model = bench::MakeOracle(*instance);
    const auto heuristic = OptimizeSjaResponseTime(model);
    const auto brute = BruteForceSemijoinAdaptive(
        model, 1 << 20, PlanObjective::kResponseTime);
    FUSION_CHECK(heuristic.ok() && brute.ok());
    const double ratio = heuristic->estimated_cost / brute->estimated_cost;
    if (ratio < 1.0 + 1e-9) ++exact;
    worst = std::max(worst, ratio);
  }
  std::printf("optimal on %d/%d instances; worst ratio %.3f\n", exact,
              kInstances, worst);
  std::printf(
      "\nShape check: per-source decisions are NOT independent under the "
      "makespan objective, so SJA-RT is a heuristic — but a tight one.\n");
}

void DifferenceSerialization() {
  bench::Banner("E10c: difference pruning saves work but serializes");
  std::printf("%-10s %12s %12s\n", "plan", "total work", "response time");
  SyntheticSpec spec;
  spec.universe_size = 2000;
  spec.num_sources = 8;
  spec.num_conditions = 2;
  spec.selectivity = {0.02, 0.5};
  spec.frac_native_semijoin = 1.0;
  spec.overhead_min = 3;
  spec.overhead_max = 6;
  spec.send_min = 1.5;
  spec.send_max = 2.5;
  spec.seed = 1234;
  auto instance = GenerateSynthetic(spec);
  FUSION_CHECK(instance.ok());
  const OracleCostModel model = bench::MakeOracle(*instance);
  const auto sja = OptimizeSja(model);
  FUSION_CHECK(sja.ok());
  for (const bool diff : {false, true}) {
    PostOptOptions options;
    options.use_difference = diff;
    options.use_loading = false;
    const auto plan =
        PostOptimizeStructure(model, sja->structure, options, "SJA");
    FUSION_CHECK(plan.ok());
    const auto rt = EstimateResponseTime(plan->plan, model);
    FUSION_CHECK(rt.ok());
    std::printf("%-10s %12.0f %12.0f\n", diff ? "SJA+diff" : "SJA",
                rt->total_work, rt->response_time);
  }
  std::printf(
      "\nShape check: pruned semijoins must run one after another (each "
      "input depends on the previous answer), so the latency rises even as "
      "total work falls — the trade-off the paper's conclusion anticipates.\n");
}

void MeasuredMakespan() {
  // The prior sections score *theoretical* makespans; this one executes the
  // plan on a thread pool with simulated per-cost-unit latencies and checks
  // that the wall clock actually lands on the predicted critical path.
  bench::Banner("E10d: measured wall-clock makespan vs theory (Fig. 1 DMV)");
  auto instance = BuildDmvFigure1();
  FUSION_CHECK(instance.ok());

  // The Figure 1 filter plan: both sources' selections are independent, so
  // theory predicts the makespan collapses to the slower source chain.
  Plan plan;
  std::vector<int> dui, sp;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  for (int j = 0; j < 3; ++j) sp.push_back(plan.EmitSelect(1, j));
  const int u2 = plan.EmitUnion(sp, "U2");
  plan.SetResult(plan.EmitIntersect({x1, u2}, "X2"));

  constexpr double kScale = 2e-3;  // seconds of sleep per metered cost unit
  ExecOptions options;
  options.simulated_seconds_per_cost = kScale;
  options.parallelism = 1;  // the sequential row

  const auto seq =
      ExecutePlan(plan, instance->catalog, instance->query, options);
  FUSION_CHECK(seq.ok()) << seq.status().ToString();
  const auto theory = ComputeResponseTime(plan, seq->per_op_cost);
  FUSION_CHECK(theory.ok());

  std::printf("%-16s %14s %14s %10s\n", "execution", "cost units", "measured",
              "vs theory");
  std::printf("%-16s %14.1f %14s %10s\n", "theory: work", theory->total_work,
              "-", "-");
  std::printf("%-16s %14.1f %14s %10s\n", "theory: makespan",
              theory->response_time, "-", "-");
  std::printf("%-16s %14.1f %11.3f s %9.2fx\n", "sequential",
              theory->total_work, seq->wall_clock_makespan,
              seq->wall_clock_makespan / (theory->total_work * kScale));
  for (const int parallelism : {2, 4, 8}) {
    options.parallelism = parallelism;
    const auto par =
        ExecutePlan(plan, instance->catalog, instance->query, options);
    FUSION_CHECK(par.ok()) << par.status().ToString();
    FUSION_CHECK(par->answer == seq->answer);
    const double measured_units = par->wall_clock_makespan / kScale;
    const double vs_theory = measured_units / theory->response_time;
    std::printf("%-16s %14.1f %11.3f s %9.2fx\n",
                ("parallel x" + std::to_string(parallelism)).c_str(),
                theory->response_time, par->wall_clock_makespan, vs_theory);
    if (parallelism >= 4) {
      // The acceptance bar: at parallelism >= 4 the measured makespan sits
      // within 20% of the theoretical critical path and strictly below the
      // sequential total cost.
      FUSION_CHECK(vs_theory < 1.20)
          << "measured makespan drifted >20% above theory";
      FUSION_CHECK(measured_units < theory->total_work)
          << "parallel execution failed to beat the sequential total cost";
    }
  }
  std::printf(
      "\nShape check: the executor's measured makespan converges on "
      "ComputeResponseTime's critical path once workers cover the plan's "
      "width — the theoretical objective optimized above is achievable, not "
      "aspirational.\n");

  // One more parallel run, traced: emit a real Chrome trace of the overlap
  // the numbers above claim, and check the span/charge invariant.
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  options.parallelism = 4;
  const auto traced =
      ExecutePlan(plan, instance->catalog, instance->query, options);
  Tracer::Global().Disable();
  FUSION_CHECK(traced.ok()) << traced.status().ToString();
  const std::vector<SpanRecord> spans = Tracer::Global().Drain();
  size_t source_call_spans = 0;
  for (const SpanRecord& s : spans) {
    if (s.category == SpanCategory::kSourceCall) ++source_call_spans;
  }
  FUSION_CHECK(source_call_spans == traced->ledger.num_queries())
      << source_call_spans << " source_call spans vs "
      << traced->ledger.num_queries() << " ledger charges";
  const Status written = WriteChromeTrace(spans, "e10d_trace.json");
  FUSION_CHECK_OK(written);
  std::printf("\ntrace: %zu spans (%zu source calls, 1:1 with the ledger) "
              "-> e10d_trace.json\n%s",
              spans.size(), source_call_spans, FlameSummary(spans).c_str());
}

void DegradedUnderDeadline() {
  // Fault-tolerant execution: a slow source against a hard query deadline.
  // The degraded run must (a) finish within deadline + one in-flight call,
  // and (b) return a *sound* partial answer — a subset of the healthy one —
  // with the excluded sources named in the completeness report.
  bench::Banner("E10e: degraded-mode execution under a query deadline");

  // The deadline sits *below* one slow call: with parallel execution every
  // fast-source call is admitted at t ≈ 0, the slow source's first call is
  // admitted in time (and allowed to overrun — in-flight calls are never
  // interrupted), and its second, serialized call arrives after the
  // deadline and is the one cut off.
  constexpr double kSlowCallSeconds = 0.08;
  constexpr double kDeadlineSeconds = 0.05;

  auto build_catalog = [] {
    const Schema schema({{"L", ValueType::kString},
                         {"V", ValueType::kString}});
    NetworkProfile net;
    net.query_overhead = 10.0;
    SourceCatalog catalog;
    auto add = [&](const char* name, std::vector<std::vector<Value>> rows,
                   double latency) {
      Relation r(schema);
      for (auto& row : rows) FUSION_CHECK(r.Append(std::move(row)).ok());
      auto inner = std::make_unique<SimulatedSource>(name, std::move(r),
                                                     Capabilities{}, net);
      FlakySource::Options slow;
      slow.injected_latency_seconds = latency;
      FUSION_CHECK(
          catalog
              .Add(std::make_unique<FlakySource>(std::move(inner), slow))
              .ok());
    };
    // R1 and R2 answer instantly; R3 needs 80 ms per call and uniquely
    // witnesses 'T21' — exactly what a deadline-bound run must give up.
    add("R1", {{Value("J55"), Value("dui")}}, 0.0);
    add("R2", {{Value("J55"), Value("sp")}, {Value("T21"), Value("dui")}},
        0.0);
    add("R3", {{Value("T21"), Value("sp")}}, kSlowCallSeconds);
    return catalog;
  };

  const FusionQuery query("L", {Condition::Eq("V", Value("dui")),
                                Condition::Eq("V", Value("sp"))});
  Plan plan;
  std::vector<int> dui, sp;
  for (int j = 0; j < 3; ++j) dui.push_back(plan.EmitSelect(0, j));
  const int x1 = plan.EmitUnion(dui, "X1");
  for (int j = 0; j < 3; ++j) sp.push_back(plan.EmitSelect(1, j));
  const int u2 = plan.EmitUnion(sp, "U2");
  plan.SetResult(plan.EmitIntersect({x1, u2}, "X2"));

  const SourceCatalog catalog = build_catalog();
  auto timed_run = [&](const ExecOptions& options) {
    const auto start = std::chrono::steady_clock::now();
    auto report = ExecutePlan(plan, catalog, query, options);
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    return std::make_pair(std::move(report), elapsed);
  };

  std::printf("%-22s %10s %8s %10s %s\n", "run", "wall", "answer",
              "complete", "notes");
  ExecOptions healthy_options;
  healthy_options.parallelism = 4;
  const auto [healthy, healthy_s] = timed_run(healthy_options);
  FUSION_CHECK(healthy.ok()) << healthy.status().ToString();
  std::printf("%-22s %8.3f s %8zu %10s %s\n", "healthy (no deadline)",
              healthy_s, healthy->answer.size(), "yes",
              healthy->answer.ToString().c_str());

  ExecOptions fail_mode = healthy_options;
  fail_mode.deadline_seconds = kDeadlineSeconds;
  const auto [failed, failed_s] = timed_run(fail_mode);
  FUSION_CHECK(!failed.ok() &&
               failed.status().code() == StatusCode::kDeadlineExceeded)
      << "fail-mode run should exceed the deadline";
  std::printf("%-22s %8.3f s %8s %10s %s\n", "deadline, on-fail", failed_s,
              "-", "-", "kDeadlineExceeded (whole query lost)");

  ExecOptions degrade = fail_mode;
  degrade.on_source_failure = SourceFailurePolicy::kDegrade;
  const auto [partial, partial_s] = timed_run(degrade);
  FUSION_CHECK(partial.ok()) << partial.status().ToString();
  std::printf("%-22s %8.3f s %8zu %10s %s\n", "deadline, degrade", partial_s,
              partial->answer.size(),
              partial->completeness.answer_complete ? "yes" : "no",
              partial->answer.ToString().c_str());

  // Acceptance bars.
  FUSION_CHECK(partial_s <= kDeadlineSeconds + kSlowCallSeconds + 0.25)
      << "degraded run overshot deadline + one call: " << partial_s;
  FUSION_CHECK(
      ItemSet::Difference(partial->answer, healthy->answer).empty())
      << "partial answer is not a subset of the healthy answer";
  FUSION_CHECK(!partial->completeness.answer_complete);
  FUSION_CHECK(partial->completeness.sound);
  std::printf("\n%s\n",
              partial->completeness
                  .ToString({"V = 'dui'", "V = 'sp'"}, {"R1", "R2", "R3"})
                  .c_str());
  std::printf(
      "Shape check: the deadline converts a %.0f ms all-or-nothing failure "
      "into a %.0f ms sound partial answer (no false positives — losing a "
      "source can only shrink the per-condition unions), with the excluded "
      "sources reported per condition.\n",
      healthy_s * 1e3, partial_s * 1e3);
}

void RepeatedQueryCache() {
  // Cross-query caching: the same fusion query issued twice through a
  // QuerySession. The second run answers cached calls locally (exact key or
  // containment), and with cache-aware optimization the *plan itself* shifts
  // to anchor on the cached condition — cheaper than replaying the
  // cold-cache plan against a warm cache.
  bench::Banner("E10f: repeated queries under the cross-query result cache");

  const Schema schema({{"L", ValueType::kInt64}, {"V", ValueType::kString}});
  NetworkProfile net;
  net.query_overhead = 10.0;
  net.cost_per_item_sent = 0.001;
  net.cost_per_item_received = 1.0;
  auto build_catalog = [&] {
    SourceCatalog catalog;
    auto add = [&](const char* name,
                   std::vector<std::pair<int64_t, int64_t>> a_ranges,
                   std::vector<std::pair<int64_t, int64_t>> u_ranges) {
      Relation r(schema);
      for (const auto& [lo, hi] : a_ranges)
        for (int64_t i = lo; i < hi; ++i)
          FUSION_CHECK(r.Append({Value(i), Value("a")}).ok());
      for (const auto& [lo, hi] : u_ranges)
        for (int64_t i = lo; i < hi; ++i)
          FUSION_CHECK(r.Append({Value(i), Value("u")}).ok());
      FUSION_CHECK(catalog
                       .Add(std::make_unique<SimulatedSource>(
                           name, std::move(r), Capabilities{}, net))
                       .ok());
    };
    add("R1", {{0, 800}, {2000, 2005}}, {{2800, 3100}});
    add("R2", {{700, 1500}}, {{2000, 2005}, {3100, 3395}});
    return catalog;
  };

  const Condition c_a = Condition::Eq("V", Value("a"));
  const Condition c_u = Condition::Eq("V", Value("u"));
  const FusionQuery warmup("L", {c_a});
  const FusionQuery query("L", {c_a, c_u});

  std::printf("%-28s %12s %8s %8s %10s\n", "run", "metered cost", "hits",
              "derived", "answer");
  ItemSet answers[2];
  double repeat_cost[2];
  for (const bool aware : {false, true}) {
    QuerySession::Options options;
    options.strategy = OptimizerStrategy::kSja;
    options.cache_aware_optimization = aware;
    QuerySession session(Mediator(build_catalog()), options);
    const auto first = session.Answer(warmup);
    FUSION_CHECK(first.ok()) << first.status().ToString();
    const auto second = session.Answer(query);
    FUSION_CHECK(second.ok()) << second.status().ToString();
    answers[aware] = second->items;
    repeat_cost[aware] = second->execution.ledger.total();
    std::printf("%-28s %12.1f %8zu %8zu %10s\n",
                aware ? "repeat, cache-aware plan" : "repeat, oblivious plan",
                repeat_cost[aware], second->execution.cache_hits,
                second->execution.cache_containment_hits,
                answers[aware].ToString().c_str());
  }
  FUSION_CHECK(answers[0] == answers[1])
      << "cache-aware planning changed the answer";
  FUSION_CHECK(repeat_cost[1] < repeat_cost[0])
      << "cache-aware plan failed to beat the oblivious one";
  std::printf(
      "\nShape check: both plans answer identically, but the cache-aware "
      "optimizer re-prices cached calls at zero and anchors the plan on the "
      "already-cached condition — %.0f%% less metered work than replaying "
      "the cold-cache plan against the same warm cache.\n",
      100 * (1 - repeat_cost[1] / repeat_cost[0]));
}

}  // namespace
}  // namespace fusion

int main() {
  fusion::TradeOffSweep();
  fusion::HeuristicGap();
  fusion::DifferenceSerialization();
  fusion::MeasuredMakespan();
  fusion::DegradedUnderDeadline();
  fusion::RepeatedQueryCache();
  return 0;
}
