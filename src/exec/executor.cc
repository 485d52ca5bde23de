#include "exec/executor.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "exec/exec_internal.h"
#include "exec/source_health.h"
#include "exec/thread_pool.h"

namespace fusion {
namespace {

using exec_internal::CallContext;
using exec_internal::CallStats;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash. Used for retry
/// jitter so the schedule is a pure function of (seed, source, attempt) —
/// no RNG stream, hence no dependence on thread interleaving.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double RetryPolicy::BackoffSeconds(size_t source_index, int attempt) const {
  if (attempt < 1 || initial_backoff_seconds <= 0.0) return 0.0;
  double backoff = initial_backoff_seconds;
  for (int i = 1; i < attempt; ++i) backoff *= backoff_multiplier;
  if (max_backoff_seconds > 0.0 && backoff > max_backoff_seconds) {
    backoff = max_backoff_seconds;
  }
  if (jitter_fraction > 0.0) {
    uint64_t h = SplitMix64(jitter_seed);
    h = SplitMix64(h ^ static_cast<uint64_t>(source_index));
    h = SplitMix64(h ^ static_cast<uint64_t>(attempt));
    // Top 53 bits → uniform in [0, 1), then map into the symmetric band
    // [1 - jitter, 1 + jitter).
    const double unit =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    backoff *= 1.0 - jitter_fraction + 2.0 * jitter_fraction * unit;
  }
  return backoff;
}

std::vector<int> CompletenessReport::ExcludedSources(int condition) const {
  std::vector<int> sources;
  for (const SourceExclusion& e : excluded) {
    if (e.condition != condition) continue;
    if (std::find(sources.begin(), sources.end(), e.source) == sources.end()) {
      sources.push_back(e.source);
    }
  }
  return sources;
}

std::string CompletenessReport::ToString(
    const std::vector<std::string>& condition_names,
    const std::vector<std::string>& source_names) const {
  if (answer_complete) return "complete answer (no sources excluded)";
  auto cond_text = [&](int c) {
    if (c < 0) return std::string("whole query");
    if (static_cast<size_t>(c) < condition_names.size()) {
      return condition_names[static_cast<size_t>(c)];
    }
    return "c" + std::to_string(c + 1);
  };
  auto source_text = [&](int s) {
    if (s >= 0 && static_cast<size_t>(s) < source_names.size()) {
      return source_names[static_cast<size_t>(s)];
    }
    return "R" + std::to_string(s + 1);
  };
  std::string out =
      "partial answer (sound: every returned item satisfies the query at "
      "some responding source)\n";
  for (const SourceExclusion& e : excluded) {
    out += "  excluded " + source_text(e.source) + " from " +
           cond_text(e.condition) + ": " + e.reason + "\n";
  }
  return out;
}

Status ValidateExecOptions(const ExecOptions& options) {
  const RetryPolicy& retry = options.retry;
  if (retry.max_attempts < 1) {
    return Status::InvalidArgument(
        "retry.max_attempts must be >= 1, got " +
        std::to_string(retry.max_attempts));
  }
  if (retry.initial_backoff_seconds < 0.0) {
    return Status::InvalidArgument("retry.initial_backoff_seconds < 0");
  }
  if (retry.backoff_multiplier < 1.0) {
    return Status::InvalidArgument("retry.backoff_multiplier must be >= 1");
  }
  if (retry.max_backoff_seconds < 0.0) {
    return Status::InvalidArgument("retry.max_backoff_seconds < 0");
  }
  if (retry.jitter_fraction < 0.0 || retry.jitter_fraction >= 1.0) {
    return Status::InvalidArgument(
        "retry.jitter_fraction must be in [0, 1)");
  }
  if (retry.call_timeout_seconds < 0.0) {
    return Status::InvalidArgument("retry.call_timeout_seconds < 0");
  }
  if (options.deadline_seconds < 0.0) {
    return Status::InvalidArgument("deadline_seconds < 0");
  }
  if (options.cost_budget < 0.0) {
    return Status::InvalidArgument("cost_budget < 0");
  }
  if (options.parallelism.has_value() && *options.parallelism < 1) {
    return Status::InvalidArgument("parallelism must be >= 1, got " +
                                   std::to_string(*options.parallelism));
  }
  if (options.simulated_seconds_per_cost < 0.0) {
    return Status::InvalidArgument("simulated_seconds_per_cost < 0");
  }
  return Status::Ok();
}

namespace {

using Clock = std::chrono::steady_clock;

/// Op-private outputs of one kernel evaluation. Only the op's own
/// evaluation writes its slot, so a scheduler may run ops on any thread once
/// their inputs are complete; Merge reads the slots after all ops finished.
struct OpOutput {
  CostLedger ledger;  // this op's charges, failed attempts included
  CallStats stats;
  double seconds = 0.0;  // evaluation time, excluding lazily demanded inputs
  bool emulated = false;         // semijoin answered by per-binding probes
  bool short_circuited = false;  // lazy ∅-candidate semijoin: no source call
};

/// One plan execution: the SSA variables, the per-op outputs, the EvalOp
/// kernel that evaluates one plan op into them, and the three schedulers
/// that decide which op runs when — eager (plan order), lazy (demand-driven
/// from the result, with sound short-circuits) and parallel (dependency DAG
/// over a thread pool). Merge then folds the op outputs into the report in
/// the order the scheduler recorded.
class PlanRun {
 public:
  PlanRun(const Plan& plan, const SourceCatalog& catalog,
          const FusionQuery& query, const ExecOptions& options,
          exec_internal::FaultState* fault)
      : plan_(plan),
        catalog_(catalog),
        query_(query),
        options_(options),
        fault_(fault),
        lazy_(options.lazy_short_circuit),
        items_(plan.vars().size()),
        relations_(plan.vars().size()),
        defining_op_(plan.vars().size(), 0),
        outputs_(plan.num_ops()),
        reasons_(plan.num_ops()) {
    for (size_t k = 0; k < plan.num_ops(); ++k) {
      defining_op_[static_cast<size_t>(plan.ops()[k].target)] = k;
    }
    if (options.on_source_failure == SourceFailurePolicy::kDegrade) {
      degradable_ = exec_internal::DegradableOps(plan);
    }
  }

  /// Every op, in plan order.
  Status RunEager() {
    for (size_t k = 0; k < plan_.num_ops(); ++k) {
      FUSION_RETURN_IF_ERROR(EvalOp(k, nullptr));
      order_.push_back(k);
    }
    return Status::Ok();
  }

  /// Only the ops the result demands; EvalOp requests each input just
  /// before it needs it, so the short-circuits can leave subtrees unrun.
  Status RunLazy() { return Demand(plan_.result()); }

  /// The op dependency DAG over a pool of `workers` threads. An
  /// op waits for the ops defining its inputs and for the previous op on
  /// its source: a source answers one query at a time (the model
  /// ComputeResponseTime prices), which also keeps per-source wrapper state
  /// race-free within one execution. Workers write only op-private slots;
  /// the scheduler mutex orders an op's completion before the dispatch of
  /// its dependents, which makes their reads of its outputs race-free.
  Status RunParallel(int workers) {
    const size_t num_ops = plan_.num_ops();
    std::vector<std::vector<size_t>> dependents(num_ops);
    std::vector<size_t> pending(num_ops, 0);
    std::vector<int> last_on_source(catalog_.size(), -1);
    for (size_t k = 0; k < num_ops; ++k) {
      const PlanOp& op = plan_.ops()[k];
      std::vector<size_t> deps;
      if (op.input >= 0) deps.push_back(defining_op_[op.input]);
      for (int v : op.inputs) deps.push_back(defining_op_[v]);
      if (op.source >= 0) {
        int& last = last_on_source[static_cast<size_t>(op.source)];
        if (last >= 0) deps.push_back(static_cast<size_t>(last));
        last = static_cast<int>(k);
      }
      std::sort(deps.begin(), deps.end());
      deps.erase(std::unique(deps.begin(), deps.end()), deps.end());
      for (size_t d : deps) dependents[d].push_back(k);
      pending[k] = deps.size();
    }

    std::mutex mu;  // guards pending, scheduled, finished, error
    std::condition_variable done_cv;
    size_t scheduled = 0;
    size_t finished = 0;
    Status error;  // the first failure; no op is dispatched after it
    std::function<void(size_t)> dispatch;  // requires mu held
    {
      ThreadPool pool(workers);
      dispatch = [&](size_t k) {
        ++scheduled;
        pool.Submit([&, k] {
          const Status status = EvalOp(k, &pool);
          std::lock_guard<std::mutex> lock(mu);
          if (!status.ok()) {
            if (error.ok()) error = status;
          } else if (error.ok()) {
            for (const size_t d : dependents[k]) {
              if (--pending[d] == 0) dispatch(d);
            }
          }
          ++finished;
          done_cv.notify_all();
        });
      };
      std::unique_lock<std::mutex> lock(mu);
      for (size_t k = 0; k < num_ops; ++k) {
        if (pending[k] == 0) dispatch(k);
      }
      done_cv.wait(lock, [&] {
        return finished == scheduled && (!error.ok() || finished == num_ops);
      });
    }  // the lock is released, then the pool joins every dispatched task
    if (!error.ok()) return error;
    // Merge in plan-op order, so the ledger matches eager execution
    // charge-for-charge (and total-for-total in floating point).
    for (size_t k = 0; k < num_ops; ++k) order_.push_back(k);
    return Status::Ok();
  }

  /// Folds the outputs of the ops the scheduler ran into `report`, in the
  /// order it recorded them: plan order for eager and parallel runs,
  /// completion order for lazy ones (an op charges only after its inputs
  /// complete, so that is lazy's charge order).
  Status Merge(ExecutionReport& report) {
    const size_t num_ops = plan_.num_ops();
    report.per_op_cost.assign(num_ops, 0.0);
    report.per_op_seconds.assign(num_ops, 0.0);
    report.per_op_cache.assign(num_ops, '-');
    report.per_source_items.assign(catalog_.size(), ItemSet());
    report.skipped_ops = num_ops - order_.size();
    CallStats stats;
    for (const size_t k : order_) {
      OpOutput& out = outputs_[k];
      report.per_op_cost[k] = out.ledger.total();
      report.per_op_seconds[k] = out.seconds;
      // Containment hits are double-counted inside misses (the exact key
      // did miss), so a "real" miss is a miss beyond the containment count.
      if (out.stats.cache_misses > out.stats.cache_containment_hits) {
        report.per_op_cache[k] = 'm';
      } else if (out.stats.cache_containment_hits > 0) {
        report.per_op_cache[k] = 'c';
      } else if (out.stats.cache_hits > 0) {
        report.per_op_cache[k] = 'h';
      }
      report.ledger.MergeFrom(std::move(out.ledger));
      stats.MergeFrom(out.stats);
      if (out.emulated) ++report.emulated_semijoins;
      if (out.short_circuited) ++report.skipped_ops;
      // Witness knowledge: every item a source returned is held there. A
      // ∅-substituted op returned nothing.
      const PlanOp& op = plan_.ops()[k];
      if (op.source < 0 || !reasons_[k].empty()) continue;
      ItemSet& observed =
          report.per_source_items[static_cast<size_t>(op.source)];
      if (relations_[op.target].has_value()) {
        FUSION_ASSIGN_OR_RETURN(
            ItemSet all_items,
            relations_[op.target]->SelectItems(Condition::True(),
                                               query_.merge_attribute()));
        observed.UnionInPlace(all_items);
      } else {
        observed.UnionInPlace(*items_[op.target]);
      }
    }
    report.answer = std::move(*items_[plan_.result()]);
    report.retries_total = stats.retries;
    report.cache_hits = stats.cache_hits;
    report.cache_misses = stats.cache_misses;
    report.cache_containment_hits = stats.cache_containment_hits;
    report.breaker_fast_fails = stats.breaker_fast_fails;
    report.semijoin_probes_skipped = stats.semijoin_probes_skipped;
    exec_internal::BuildCompletenessReport(plan_, reasons_,
                                           &report.completeness);
    return Status::Ok();
  }

 private:
  bool Evaluated(int var) const {
    return items_[var].has_value() || relations_[var].has_value();
  }

  /// Lazy scheduler: evaluates the op defining `var` unless it already ran.
  Status Demand(int var) {
    if (Evaluated(var)) return Status::Ok();
    const size_t k = defining_op_[var];
    FUSION_RETURN_IF_ERROR(EvalOp(k, nullptr));
    order_.push_back(k);
    return Status::Ok();
  }

  /// Makes input `var` available to the op being evaluated. Eager and
  /// parallel runs complete every input first, so this acts only in lazy
  /// mode, where it demands the input with the caller's clock (`start`)
  /// stopped: per-op seconds exclude the inputs' own evaluation.
  Status Input(int var, Clock::time_point& start) {
    if (!lazy_) return Status::Ok();
    const Clock::time_point paused = Clock::now();
    const Status status = Demand(var);
    start += Clock::now() - paused;
    return status;
  }

  /// The fault-tolerance call context for op k's source interactions; the
  /// Cached* helpers fill in the op tag and source name.
  CallContext ContextFor(int source, OpOutput& out, ThreadPool* pool) const {
    CallContext ctx;
    ctx.ledger = &out.ledger;
    ctx.stats = &out.stats;
    ctx.retry = &options_.retry;
    ctx.fault = fault_;
    ctx.health = options_.health;
    ctx.source_index = source;
    ctx.blocking_pool = pool;
    return ctx;
  }

  /// Degraded-mode absorption of an exhausted source call: substitutes ∅
  /// (or an empty relation) for op k and records why, when that is provably
  /// sound; otherwise returns `status`, failing the query.
  Status Absorb(size_t k, const PlanOp& op, const Status& status) {
    if (degradable_.empty() || degradable_[k] == 0 ||
        !exec_internal::IsDegradableFailure(status)) {
      return status;
    }
    reasons_[k] = status.ToString();
    if (op.kind == PlanOpKind::kLoad) {
      relations_[op.target] = Relation(
          catalog_.source(static_cast<size_t>(op.source)).schema());
    } else {
      items_[op.target] = ItemSet();
    }
    return Status::Ok();
  }

  /// The kernel: evaluates plan op k, whose inputs are complete (or, in
  /// lazy mode, demanded through Input), writing only op-private state —
  /// the op's SSA target variable, outputs_[k] and reasons_[k]. `pool` is
  /// the parallel scheduler's, so retry backoff sleeps release their slot.
  Status EvalOp(size_t k, ThreadPool* pool) {
    const PlanOp& op = plan_.ops()[k];
    OpOutput& out = outputs_[k];
    // The span covers the evaluation *and* the simulated-latency sleep, so
    // traced parallel runs show real wall-clock overlap between ops.
    ScopedSpan span(SpanCategory::kPlanOp, PlanOpKindName(op.kind));
    if (span.active()) {
      span.AddAttr("op", static_cast<int64_t>(k));
      span.AddAttr("target", plan_.var(op.target).name);
      if (op.source >= 0) {
        span.AddAttr("source",
                     catalog_.source(static_cast<size_t>(op.source)).name());
      }
      if (op.cond >= 0) span.AddAttr("cond", static_cast<int64_t>(op.cond));
    }
    Clock::time_point start = Clock::now();
    const std::string& merge = query_.merge_attribute();
    switch (op.kind) {
      case PlanOpKind::kSelect: {
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        // Cache consultation, single-flight dedup, retries and memo
        // publication all live in CachedSelect. Cache hits charge nothing.
        Result<ItemSet> result = exec_internal::CachedSelect(
            src, query_.conditions()[static_cast<size_t>(op.cond)], merge,
            options_, out.ledger, ContextFor(op.source, out, pool));
        if (!result.ok()) {
          FUSION_RETURN_IF_ERROR(Absorb(k, op, result.status()));
          break;
        }
        items_[op.target] = std::move(result).value();
        break;
      }
      case PlanOpKind::kSemiJoin: {
        FUSION_RETURN_IF_ERROR(Input(op.input, start));
        const ItemSet& candidates = *items_[op.input];
        if (lazy_ && candidates.empty()) {
          items_[op.target] = ItemSet();  // ∅ semijoin needs no source call
          out.short_circuited = true;
          break;
        }
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        // Cache lookup (exact or containment-derived), capability dispatch
        // (native / emulated / unsupported) and memo publication.
        bool emulated = false;
        Result<ItemSet> result = exec_internal::CachedSemiJoin(
            src, query_.conditions()[static_cast<size_t>(op.cond)], merge,
            candidates, options_, out.ledger, ContextFor(op.source, out, pool),
            &emulated);
        if (!result.ok()) {
          FUSION_RETURN_IF_ERROR(Absorb(k, op, result.status()));
          break;
        }
        items_[op.target] = std::move(result).value();
        if (emulated) {
          out.emulated = true;
          static Counter& counter =
              MetricsRegistry::Global().counter(metrics::kEmulatedSemijoins);
          counter.Increment();
        }
        break;
      }
      case PlanOpKind::kLoad: {
        SourceWrapper& src = catalog_.source(static_cast<size_t>(op.source));
        Result<Relation> loaded = exec_internal::CachedLoad(
            src, options_, out.ledger, ContextFor(op.source, out, pool));
        if (!loaded.ok()) {
          FUSION_RETURN_IF_ERROR(Absorb(k, op, loaded.status()));
          break;
        }
        relations_[op.target] = std::move(loaded).value();
        break;
      }
      case PlanOpKind::kLocalSelect: {
        FUSION_RETURN_IF_ERROR(Input(op.input, start));
        if (!relations_[op.input].has_value()) {
          return Status::Internal("local select over unloaded relation var");
        }
        FUSION_ASSIGN_OR_RETURN(
            ItemSet result,
            relations_[op.input]->SelectItems(
                query_.conditions()[static_cast<size_t>(op.cond)], merge));
        items_[op.target] = std::move(result);
        break;
      }
      case PlanOpKind::kUnion: {
        ItemSet acc;
        for (int v : op.inputs) {
          FUSION_RETURN_IF_ERROR(Input(v, start));
          acc.UnionInPlace(*items_[v]);
        }
        items_[op.target] = std::move(acc);
        break;
      }
      case PlanOpKind::kIntersect: {
        std::optional<ItemSet> acc;
        for (int v : op.inputs) {
          if (lazy_ && acc.has_value() && acc->empty()) {
            break;  // sound cut: ∅ ∩ anything = ∅; skip remaining subtrees
          }
          FUSION_RETURN_IF_ERROR(Input(v, start));
          acc = acc.has_value() ? ItemSet::Intersect(*acc, *items_[v])
                                : *items_[v];
        }
        items_[op.target] = std::move(*acc);
        break;
      }
      case PlanOpKind::kDifference: {
        FUSION_RETURN_IF_ERROR(Input(op.inputs[0], start));
        const ItemSet& lhs = *items_[op.inputs[0]];
        if (lazy_ && lhs.empty()) {
          items_[op.target] = ItemSet();  // ∅ − X = ∅; skip rhs subtree
          break;
        }
        FUSION_RETURN_IF_ERROR(Input(op.inputs[1], start));
        items_[op.target] = ItemSet::Difference(lhs, *items_[op.inputs[1]]);
        break;
      }
    }
    out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
    span.AddAttr("cost", out.ledger.total());
    if (!reasons_[k].empty()) span.AddAttr("degraded", reasons_[k]);
    // The op "takes" as long as it cost (scaled); dependents and the next
    // query to this source wait for completion, so makespans compose.
    exec_internal::SleepForCost(out.ledger.total(), options_);
    return Status::Ok();
  }

  const Plan& plan_;
  const SourceCatalog& catalog_;
  const FusionQuery& query_;
  const ExecOptions& options_;
  exec_internal::FaultState* fault_;
  const bool lazy_;
  // Per SSA variable; each is written by its one defining op.
  std::vector<std::optional<ItemSet>> items_;
  std::vector<std::optional<Relation>> relations_;
  std::vector<size_t> defining_op_;  // var -> index of the op defining it
  std::vector<OpOutput> outputs_;
  std::vector<std::string> reasons_;  // non-empty iff op was ∅-substituted
  std::vector<char> degradable_;      // empty unless on_source_failure=kDegrade
  std::vector<size_t> order_;         // ops that ran, in merge order
};

/// The automatic worker count: the number of distinct sources with an op
/// that waits. A call waits when it sleeps for its paced cost or when its
/// source is not the in-process simulator (a network source or a test
/// double); an unpaced simulator call is mediator CPU, which another
/// thread would only hand off, not overlap.
int WaitingSources(const Plan& plan, const SourceCatalog& catalog,
                   const ExecOptions& options) {
  std::vector<char> waits(catalog.size(), 0);
  int count = 0;
  for (const PlanOp& op : plan.ops()) {
    if (op.source < 0) continue;
    char& seen = waits[static_cast<size_t>(op.source)];
    if (seen == 0 &&
        (options.simulated_seconds_per_cost > 0.0 ||
         catalog.source(static_cast<size_t>(op.source)).AsSimulated() ==
             nullptr)) {
      seen = 1;
      ++count;
    }
  }
  return count;
}

}  // namespace

Result<ExecutionReport> ExecutePlan(const Plan& plan,
                                    const SourceCatalog& catalog,
                                    const FusionQuery& query,
                                    const ExecOptions& options) {
  FUSION_RETURN_IF_ERROR(ValidateExecOptions(options));
  FUSION_RETURN_IF_ERROR(plan.Validate(query.num_conditions(), catalog.size()));
  ExecutionReport report;
  Tracer& tracer = Tracer::Global();
  report.trace.enabled = tracer.enabled();
  report.trace.start_us = tracer.NowMicros();
  const auto start = std::chrono::steady_clock::now();
  // One fault state per execution: the deadline clock starts here, and the
  // cost budget covers every ledger (all ops, failed attempts included).
  exec_internal::FaultState fault(options);
  PlanRun run(plan, catalog, query, options, &fault);
  const int workers =
      options.parallelism.value_or(WaitingSources(plan, catalog, options));
  // Lazy evaluation stays serial at any parallelism: demand-driven
  // evaluation pays off by skipping work, not by overlapping it.
  if (options.lazy_short_circuit) {
    FUSION_RETURN_IF_ERROR(run.RunLazy());
  } else if (workers > 1) {
    FUSION_RETURN_IF_ERROR(run.RunParallel(workers));
  } else {
    FUSION_RETURN_IF_ERROR(run.RunEager());
  }
  FUSION_RETURN_IF_ERROR(run.Merge(report));
  report.wall_clock_makespan =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  report.trace.end_us = tracer.NowMicros();
  return report;
}

Result<ExecutionReport> ExecutePlan(const Plan& plan,
                                    const SourceCatalog& catalog,
                                    const FusionQuery& query) {
  return ExecutePlan(plan, catalog, query, ExecOptions{});
}

}  // namespace fusion
