#ifndef FUSION_PERFBENCH_SPANS_H_
#define FUSION_PERFBENCH_SPANS_H_

// The traced run's instruments. Everything here wraps public entry points
// of the program from the outside: a timing SourceWrapper decorator, a serve
// loop that mirrors QueryService/QueryRouter::ServeConnection with one span
// around Handle, and the collector that turns each request's spans into
// per-layer times. None of it runs in an untraced trial.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
#include "protocol/socket.h"
#include "source/catalog.h"
#include "source/source_wrapper.h"

namespace fusion {
namespace perfbench {

/// Span names the benchmark itself records.
inline constexpr char kRootSpan[] = "bench.request";
inline constexpr char kCodecSpan[] = "bench.codec";
inline constexpr char kRouterHandleSpan[] = "router.handle";
inline constexpr char kServiceHandleSpan[] = "service.handle";

/// Times every call into one catalog source. Forwards AsSimulated() and
/// MergeBloom() so session network profiles and the Bloom pre-filter see
/// the wrapped source exactly as they would without the decorator.
class TimingSource final : public SourceWrapper {
 public:
  explicit TimingSource(SourceWrapper& inner) : inner_(inner) {}

  const std::string& name() const override { return inner_.name(); }
  const Schema& schema() const override { return inner_.schema(); }
  const Capabilities& capabilities() const override {
    return inner_.capabilities();
  }
  Result<ItemSet> Select(const Condition& cond,
                         const std::string& merge_attribute,
                         CostLedger* ledger) override;
  Result<ItemSet> SemiJoin(const Condition& cond,
                           const std::string& merge_attribute,
                           const ItemSet& candidates,
                           CostLedger* ledger) override;
  Result<Relation> Load(CostLedger* ledger) override;
  Result<Relation> FetchRecords(const std::string& merge_attribute,
                                const ItemSet& items,
                                CostLedger* ledger) override;
  const SimulatedSource* AsSimulated() const override {
    return inner_.AsSimulated();
  }
  std::shared_ptr<const BloomFilter> MergeBloom(
      const std::string& attribute) override {
    return inner_.MergeBloom(attribute);
  }

 private:
  SourceWrapper& inner_;
};

/// A catalog of TimingSource decorators over `base`, which must outlive it.
Result<SourceCatalog> WrapCatalog(const SourceCatalog& base);

/// The serve loop of QueryService/QueryRouter::ServeConnection (same receive
/// limit and stall deadline), with a span named `span_name` around each
/// `handle` call that joins the trace the request carries.
void ServeTraced(MessageSocket socket, const char* span_name,
                 const std::function<std::string(const std::string&)>& handle);

/// The layers a query crosses, in order.
enum Layer {
  kProtocol,
  kRouter,
  kMediator,
  kQuery,
  kOptimizer,
  kExec,
  kSource,
  kUnattributed,
  kNumLayers
};
const char* LayerName(Layer layer);

/// One request's trace, reduced to per-layer wall time. Layer times are
/// span self times (duration minus the part its children cover), so they
/// partition the client-observed latency; kUnattributed is the part of the
/// root span no other span covers.
struct RequestLayers {
  double latency_ms = 0.0;
  std::array<double, kNumLayers> layer_ms{};
  double queue_wait_ms = 0.0;    // service.handle start -> service.request
  double router_hop_ms = 0.0;    // router.handle self time
  double wire_ms = 0.0;          // latency minus the outermost server span
  double parse_us = 0.0;         // service.request start -> optimize
  double optimizer_ms = 0.0;     // optimizer algorithm spans
  double plan_prep_ms = 0.0;     // optimize phase self time
  double learn_ms = 0.0;
  double setops_ms = 0.0;        // union/intersect/difference/local-sq
  double hit_path_ms = 0.0;      // sq/sjq ops answered wholly from cache
  bool plan_memo_reused = false;
  size_t sq_calls = 0;
  size_t sjq_calls = 0;
  size_t lq_calls = 0;
};

/// Reduces one trace's spans; `pace_seconds_per_cost` attributes the
/// executor's simulated source latency (a sleep of cost × pace at the end
/// of each source op) to the source layer.
RequestLayers AnalyzeTrace(const std::vector<SpanRecord>& spans,
                           double pace_seconds_per_cost);

/// Files drained spans by trace id and reduces each request's trace as soon
/// as its root span has closed, so the tracer's buffer stays bounded by the
/// requests in flight. Thread-safe.
class TraceCollector {
 public:
  explicit TraceCollector(double pace_seconds_per_cost)
      : pace_(pace_seconds_per_cost) {}

  /// Drains the tracer and reduces trace `trace_id`, whose root has ended.
  void Complete(uint64_t trace_id);
  /// Drains the tracer and folds every bench.codec span into the codec
  /// total; other stray spans are dropped.
  std::vector<RequestLayers> Take();
  /// Total time in the benchmark's codec spans so far.
  double codec_us() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return codec_us_;
  }

 private:
  void FileLocked(std::vector<SpanRecord> drained);

  const double pace_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, std::vector<SpanRecord>> pending_;
  std::vector<RequestLayers> done_;
  double codec_us_ = 0.0;
};

}  // namespace perfbench
}  // namespace fusion

#endif  // FUSION_PERFBENCH_SPANS_H_
