#include "perfbench/spans.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "protocol/client_protocol.h"

namespace fusion {
namespace perfbench {

Result<ItemSet> TimingSource::Select(const Condition& cond,
                                     const std::string& merge_attribute,
                                     CostLedger* ledger) {
  ScopedSpan span(SpanCategory::kSourceCall, "bench.source.sq");
  return inner_.Select(cond, merge_attribute, ledger);
}

Result<ItemSet> TimingSource::SemiJoin(const Condition& cond,
                                       const std::string& merge_attribute,
                                       const ItemSet& candidates,
                                       CostLedger* ledger) {
  ScopedSpan span(SpanCategory::kSourceCall, "bench.source.sjq");
  return inner_.SemiJoin(cond, merge_attribute, candidates, ledger);
}

Result<Relation> TimingSource::Load(CostLedger* ledger) {
  ScopedSpan span(SpanCategory::kSourceCall, "bench.source.lq");
  return inner_.Load(ledger);
}

Result<Relation> TimingSource::FetchRecords(const std::string& merge_attribute,
                                            const ItemSet& items,
                                            CostLedger* ledger) {
  ScopedSpan span(SpanCategory::kSourceCall, "bench.source.fetch");
  return inner_.FetchRecords(merge_attribute, items, ledger);
}

Result<SourceCatalog> WrapCatalog(const SourceCatalog& base) {
  SourceCatalog wrapped;
  for (size_t i = 0; i < base.size(); ++i) {
    FUSION_RETURN_IF_ERROR(
        wrapped.Add(std::make_unique<TimingSource>(base.source(i))));
  }
  return wrapped;
}

void ServeTraced(
    MessageSocket socket, const char* span_name,
    const std::function<std::string(const std::string&)>& handle) {
  socket.SetReceiveLimit(8 * kMaxClientProtocolLineBytes);
  (void)socket.SetStallDeadline(10.0);
  for (;;) {
    const Result<std::string> message = socket.Receive();
    if (!message.ok()) return;
    std::string response;
    const Result<ClientRequest> request = ParseClientRequest(*message);
    if (request.ok() && request->trace_id != 0) {
      TraceContextScope scope(
          TraceContext{request->trace_id, request->parent_span});
      ScopedSpan span(SpanCategory::kRpc, span_name);
      response = handle(*message);
    } else {
      response = handle(*message);
    }
    if (!socket.Send(response).ok()) return;
  }
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case kProtocol: return "protocol";
    case kRouter: return "router";
    case kMediator: return "mediator";
    case kQuery: return "query";
    case kOptimizer: return "optimizer";
    case kExec: return "exec";
    case kSource: return "source";
    case kUnattributed: return "unattributed";
    case kNumLayers: break;
  }
  return "?";
}

namespace {

bool Named(const SpanRecord& span, const char* name) {
  return span.name == name;
}

bool IsHandle(const SpanRecord& span) {
  return Named(span, kRouterHandleSpan) || Named(span, kServiceHandleSpan);
}

bool IsSourceOp(const SpanRecord& span) {
  return span.category == SpanCategory::kPlanOp &&
         (Named(span, "sq") || Named(span, "sjq") || Named(span, "lq"));
}

const std::string* Attr(const SpanRecord& span, const char* key) {
  for (const auto& [k, v] : span.attributes) {
    if (k == key) return &v;
  }
  return nullptr;
}

double AttrDouble(const SpanRecord& span, const char* key) {
  const std::string* value = Attr(span, key);
  return value == nullptr ? 0.0 : std::atof(value->c_str());
}

/// Length of the union of `intervals`, clipped to [lo, hi].
double Covered(std::vector<std::pair<double, double>> intervals, double lo,
               double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

}  // namespace

RequestLayers AnalyzeTrace(const std::vector<SpanRecord>& spans,
                           double pace_seconds_per_cost) {
  RequestLayers out;
  const size_t n = spans.size();
  std::unordered_map<uint64_t, size_t> by_id;
  for (size_t i = 0; i < n; ++i) by_id[spans[i].span_id] = i;

  // Parents. The server spans carry the client.query span as their parent
  // (that is the context the request frame ships); re-hang each one under
  // the innermost server handle span that encloses it, so router.handle ⊃
  // service.handle ⊃ service.request nest as they ran.
  std::vector<long> parent(n, -1);
  for (size_t i = 0; i < n; ++i) {
    const auto it = by_id.find(spans[i].parent_id);
    if (it != by_id.end() && it->second != i) {
      parent[i] = static_cast<long>(it->second);
    }
    if (!IsHandle(spans[i]) && !Named(spans[i], "service.request")) continue;
    long best = -1;
    for (size_t j = 0; j < n; ++j) {
      if (j == i || !IsHandle(spans[j])) continue;
      if (spans[j].start_us <= spans[i].start_us &&
          spans[j].end_us >= spans[i].end_us &&
          spans[j].duration_us() > spans[i].duration_us() &&
          (best < 0 || spans[j].duration_us() <
                           spans[static_cast<size_t>(best)].duration_us())) {
        best = static_cast<long>(j);
      }
    }
    if (best >= 0) parent[i] = best;
  }
  std::vector<std::vector<size_t>> children(n);
  for (size_t i = 0; i < n; ++i) {
    if (parent[i] >= 0) children[static_cast<size_t>(parent[i])].push_back(i);
  }
  // Does span i have a descendant satisfying pred?
  const std::function<bool(size_t, const std::function<bool(size_t)>&)>
      any_descendant = [&](size_t i, const std::function<bool(size_t)>& pred) {
        for (const size_t c : children[i]) {
          if (pred(c) || any_descendant(c, pred)) return true;
        }
        return false;
      };

  double outermost_handle_us = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const SpanRecord& s = spans[i];
    std::vector<std::pair<double, double>> intervals;
    double first_child_start = s.end_us;
    for (const size_t c : children[i]) {
      intervals.emplace_back(spans[c].start_us, spans[c].end_us);
      first_child_start = std::min(first_child_start, spans[c].start_us);
    }
    const double self_ms =
        (s.duration_us() - Covered(intervals, s.start_us, s.end_us)) / 1000.0;
    const double dur_ms = s.duration_us() / 1000.0;
    auto add = [&](Layer layer, double ms) { out.layer_ms[layer] += ms; };

    switch (s.category) {
      case SpanCategory::kRpc:
        if (Named(s, kRootSpan)) {
          out.latency_ms = dur_ms;
          add(kUnattributed, self_ms);
        } else if (Named(s, "client.query")) {
          add(kProtocol, self_ms);
        } else if (Named(s, kRouterHandleSpan)) {
          add(kRouter, self_ms);
          out.router_hop_ms += self_ms;
          outermost_handle_us = std::max(outermost_handle_us, s.duration_us());
        } else if (Named(s, kServiceHandleSpan)) {
          add(kMediator, self_ms);
          outermost_handle_us = std::max(outermost_handle_us, s.duration_us());
          for (const size_t c : children[i]) {
            if (Named(spans[c], "service.request")) {
              out.queue_wait_ms += (spans[c].start_us - s.start_us) / 1000.0;
            }
          }
        } else if (Named(s, "service.request")) {
          // Parse, canonicalize and validate run before the first phase.
          const double parse_ms =
              std::min(self_ms, (first_child_start - s.start_us) / 1000.0);
          out.parse_us += parse_ms * 1000.0;
          add(kQuery, parse_ms);
          add(kMediator, self_ms - parse_ms);
        } else {
          add(kSource, self_ms);  // FUSIONP/1 round trips to remote sources
        }
        break;
      case SpanCategory::kPhase:
        if (Named(s, "optimize")) {
          out.plan_prep_ms += self_ms;
          if (const std::string* memo = Attr(s, "plan_memo");
              memo != nullptr && *memo == "reused") {
            out.plan_memo_reused = true;
          }
          add(kMediator, self_ms);
        } else if (Named(s, "execute")) {
          add(kExec, self_ms);
        } else if (Named(s, "learn")) {
          out.learn_ms += self_ms;
          add(kMediator, self_ms);
        } else {
          add(kMediator, self_ms);
        }
        break;
      case SpanCategory::kOptimize:
        out.optimizer_ms += self_ms;
        add(kOptimizer, self_ms);
        break;
      case SpanCategory::kPlanOp:
        if (IsSourceOp(s)) {
          // The executor sleeps cost × pace at the end of a source op: that
          // sleep is the simulated source latency, so it is source time.
          const double paced_ms = std::min(
              self_ms,
              AttrDouble(s, "cost") * pace_seconds_per_cost * 1000.0);
          add(kSource, paced_ms);
          add(kExec, self_ms - paced_ms);
          const bool called_source = any_descendant(i, [&](size_t c) {
            return spans[c].category == SpanCategory::kSourceCall;
          });
          const bool hit = any_descendant(i, [&](size_t c) {
            return Named(spans[c], "cache.hit") ||
                   Named(spans[c], "cache.derived");
          });
          if (!Named(s, "lq") && hit && !called_source &&
              AttrDouble(s, "cost") == 0.0) {
            out.hit_path_ms += dur_ms;
          }
        } else {
          out.setops_ms += self_ms;
          add(kExec, self_ms);
        }
        break;
      case SpanCategory::kSourceCall:
        if (s.name.rfind("bench.source.", 0) == 0) {
          add(kSource, self_ms);
          if (Named(s, "bench.source.sq")) ++out.sq_calls;
          if (Named(s, "bench.source.sjq")) ++out.sjq_calls;
          if (Named(s, "bench.source.lq")) ++out.lq_calls;
        } else {
          add(kExec, self_ms);  // call admission, retries, ledger
        }
        break;
      case SpanCategory::kRetry:
      case SpanCategory::kCache:
        add(kExec, self_ms);
        break;
    }
  }
  out.wire_ms = out.latency_ms - outermost_handle_us / 1000.0;
  return out;
}

void TraceCollector::FileLocked(std::vector<SpanRecord> drained) {
  for (SpanRecord& span : drained) {
    if (span.name == kCodecSpan) {
      codec_us_ += span.duration_us();
    } else if (span.trace_id != 0) {
      pending_[span.trace_id].push_back(std::move(span));
    }
  }
  // Traces whose root never closes (none are expected) must not pile up.
  if (pending_.size() > 4096) pending_.clear();
}

void TraceCollector::Complete(uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  FileLocked(Tracer::Global().Drain());
  const auto it = pending_.find(trace_id);
  if (it == pending_.end()) return;
  done_.push_back(AnalyzeTrace(it->second, pace_));
  pending_.erase(it);
}

std::vector<RequestLayers> TraceCollector::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  FileLocked(Tracer::Global().Drain());
  pending_.clear();
  std::vector<RequestLayers> out;
  out.swap(done_);
  return out;
}

}  // namespace perfbench
}  // namespace fusion
