#include "protocol/source_server.h"

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocol/features.h"
#include "relational/condition.h"
#include "relational/relation.h"

namespace fusion {
namespace {

SourceResponse ErrorResponse(const Status& status) {
  SourceResponse response;
  response.ok = false;
  response.error_code = status.code();
  response.error_message = status.message();
  return response;
}

void AttachCharges(const CostLedger& ledger, SourceResponse& response) {
  for (const Charge& c : ledger.charges()) {
    ChargeSummary summary;
    summary.kind = ChargeKindName(c.kind);
    summary.items_sent = c.items_sent;
    summary.items_received = c.items_received;
    summary.tuples_scanned = c.tuples_scanned;
    summary.cost = c.cost;
    response.charges.push_back(std::move(summary));
  }
}

void AttachRelation(const Relation& relation, SourceResponse& response) {
  for (const std::string& line : StrSplit(RelationToCsv(relation), '\n')) {
    if (!line.empty()) response.relation_lines.push_back(line);
  }
}

}  // namespace

SourceResponse SourceServer::HandleParsed(const SourceRequest& request) {
  using Kind = SourceRequest::Kind;
  SourceResponse response;
  CostLedger ledger;
  switch (request.kind) {
    case Kind::kHello: {
      response.name = impl_->name();
      response.semijoin_support =
          SemijoinSupportName(impl_->capabilities().semijoin);
      response.supports_load = impl_->capabilities().supports_load;
      response.features = {FeatureName(Feature::kTrace)};
      // Ship the schema as a CSV header line.
      AttachRelation(Relation(impl_->schema()), response);
      break;
    }
    case Kind::kSelect:
    case Kind::kSemiJoin: {
      auto cond = ParseCondition(request.condition_text);
      if (!cond.ok()) return ErrorResponse(cond.status());
      auto items = request.kind == Kind::kSelect
                       ? impl_->Select(*cond, request.merge_attribute, &ledger)
                       : impl_->SemiJoin(*cond, request.merge_attribute,
                                         ItemSet(request.bindings), &ledger);
      if (!items.ok()) return ErrorResponse(items.status());
      response.items.assign(items->begin(), items->end());
      break;
    }
    case Kind::kLoad:
    case Kind::kFetch: {
      auto relation = request.kind == Kind::kLoad
                          ? impl_->Load(&ledger)
                          : impl_->FetchRecords(request.merge_attribute,
                                                ItemSet(request.bindings),
                                                &ledger);
      if (!relation.ok()) return ErrorResponse(relation.status());
      AttachRelation(*relation, response);
      break;
    }
  }
  AttachCharges(ledger, response);
  return response;
}

std::string SourceServer::Handle(const std::string& request_text) {
  const auto request = ParseRequest(request_text);
  // Adopt the mediator's trace context (when the request carried one)
  // *before* opening the serve span, so this server's spans — in-process or
  // in a separate source daemon — stitch into the client's trace.
  TraceContextScope trace_scope(
      request.ok() ? TraceContext{request->trace_id, request->parent_span}
                   : TraceContext{});
  ScopedSpan span(SpanCategory::kRpc, "rpc.serve");
  static Counter& requests =
      MetricsRegistry::Global().counter(metrics::kRpcServerRequests);
  requests.Increment();
  if (span.active()) {
    span.AddAttr("source", impl_->name());
    span.AddAttr("bytes_received", request_text.size());
  }
  std::string response_text =
      request.ok() ? SerializeResponse(HandleParsed(*request))
                   : SerializeResponse(ErrorResponse(request.status()));
  span.AddAttr("bytes_sent", response_text.size());
  return response_text;
}

namespace {

TcpServer::Options TcpOptions(const TcpSourceServer::Options& options) {
  TcpServer::Options tcp;
  tcp.host = options.host;
  tcp.port = options.port;
  tcp.max_frame_bytes = kMaxSourceProtocolFrameBytes;
  tcp.stall_deadline_seconds = options.stall_deadline_seconds;
  if (options.chaos.enabled()) {
    tcp.chaos = std::make_shared<ChaosDecider>(options.chaos);
  }
  return tcp;
}

}  // namespace

TcpSourceServer::TcpSourceServer(std::unique_ptr<SourceWrapper> impl,
                                 const Options& options)
    : server_(std::move(impl)),
      tcp_([this](const std::string& request) {
             return server_.Handle(request);
           },
           TcpOptions(options)) {}

}  // namespace fusion
