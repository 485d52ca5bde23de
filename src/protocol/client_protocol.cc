#include "protocol/client_protocol.h"

#include "protocol/wire.h"

namespace fusion {
namespace {

constexpr char kMagic[] = "FUSIONQ/1";
constexpr FrameFormat kRequestFormat{kMagic, kMaxClientProtocolLineBytes,
                                     "client request"};
constexpr FrameFormat kResponseFormat{kMagic, kMaxClientProtocolLineBytes,
                                      "client response"};

constexpr WireVerb<ClientRequest::Kind> kVerbs[] = {
    {ClientRequest::Kind::kHello, "HELLO"},
    {ClientRequest::Kind::kSubmit, "SUBMIT"},
    {ClientRequest::Kind::kStatus, "STATUS"},
    {ClientRequest::Kind::kCancel, "CANCEL"},
    {ClientRequest::Kind::kStats, "STATS"},
    {ClientRequest::Kind::kInvalidate, "INVALIDATE"},
};

}  // namespace

std::vector<std::string> ClientProtocolFeatures() {
  return FeatureSet::All().Names();
}

std::string SerializeClientRequest(const ClientRequest& request) {
  using Kind = ClientRequest::Kind;
  FrameWriter frame(kMagic, WireVerbName(kVerbs, request.kind));
  if (!request.client_id.empty()) frame.Text("client", request.client_id);
  if (!request.sql.empty()) frame.Text("sql", request.sql);
  if (request.kind == Kind::kStatus || request.kind == Kind::kCancel) {
    frame.U64("ticket", request.ticket);
  }
  if (request.kind == Kind::kSubmit) {
    if (!request.wait) frame.Field("wait", "no");
    if (request.explain) frame.Field("explain", "yes");
    if (request.trace_id != 0) {
      frame.U64("trace-id", request.trace_id);
      if (request.parent_span != 0) {
        frame.U64("parent-span", request.parent_span);
      }
    }
    if (request.request_id != 0) frame.U64("request-id", request.request_id);
  }
  if (request.kind == Kind::kHello && !request.features.empty()) {
    frame.Csv("features", request.features);
  }
  if (request.kind == Kind::kInvalidate) {
    frame.Text("source", request.source);
    if (request.version != 0) frame.U64("version", request.version);
  }
  return frame.Finish();
}

Result<ClientRequest> ParseClientRequest(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(FrameReader frame,
                          FrameReader::Open(text, kRequestFormat));
  ClientRequest request;
  FUSION_ASSIGN_OR_RETURN(
      request.kind, ParseWireVerb(kVerbs, frame.head(), kRequestFormat.what));
  std::string_view key, value;
  while (frame.Next(&key, &value)) {
    if (key == "client") {
      FUSION_ASSIGN_OR_RETURN(request.client_id, UnescapeWireText(value));
    } else if (key == "sql") {
      FUSION_ASSIGN_OR_RETURN(request.sql, UnescapeWireText(value));
    } else if (key == "ticket") {
      FUSION_ASSIGN_OR_RETURN(request.ticket, ParseWireU64(key, value));
    } else if (key == "wait") {
      FUSION_ASSIGN_OR_RETURN(request.wait, ParseWireYesNo(key, value));
    } else if (key == "explain") {
      FUSION_ASSIGN_OR_RETURN(request.explain, ParseWireYesNo(key, value));
    } else if (key == "features") {
      request.features = SplitWireCsv(value);
    } else if (key == "trace-id") {
      FUSION_ASSIGN_OR_RETURN(request.trace_id, ParseWireU64(key, value));
    } else if (key == "parent-span") {
      FUSION_ASSIGN_OR_RETURN(request.parent_span, ParseWireU64(key, value));
    } else if (key == "request-id") {
      FUSION_ASSIGN_OR_RETURN(request.request_id, ParseWireU64(key, value));
    } else if (key == "source") {
      FUSION_ASSIGN_OR_RETURN(request.source, UnescapeWireText(value));
    } else if (key == "version") {
      FUSION_ASSIGN_OR_RETURN(request.version, ParseWireU64(key, value));
    }
    // Unknown fields are ignored: a newer peer may send fields this build
    // does not know, and must be able to do so without negotiating first
    // (negotiation itself rides on HELLO fields).
  }
  FUSION_RETURN_IF_ERROR(frame.status());
  return request;
}

std::string SerializeClientResponse(const ClientResponse& response) {
  FrameWriter frame(kMagic, response.ok ? "OK" : "ERROR");
  if (!response.ok) frame.Error(response.error_code, response.error_message);
  if (!response.server.empty()) frame.Text("server", response.server);
  if (response.ticket != 0) frame.U64("ticket", response.ticket);
  if (!response.state.empty()) frame.Field("state", response.state);
  for (const Value& v : response.items) frame.Item("item", v);
  if (response.source_queries > 0 || !response.items.empty() ||
      response.cost > 0.0) {
    frame.Double("cost", response.cost)
        .U64("source-queries", response.source_queries)
        .U64("cache-hits", response.cache_hits)
        .U64("cache-misses", response.cache_misses)
        .U64("items-sent", response.items_sent)
        .U64("items-received", response.items_received);
  }
  if (response.cache_containment_hits > 0) {
    frame.U64("cache-containment", response.cache_containment_hits);
  }
  if (response.calibration_cost > 0.0) {
    frame.Double("calibration-cost", response.calibration_cost);
  }
  if (!response.complete) frame.Field("complete", "no");
  if (!response.features.empty()) frame.Csv("features", response.features);
  for (const std::string& line : response.stats_lines) {
    frame.Text("stats", line);
  }
  for (const std::string& line : response.explain_lines) {
    frame.Text("explain", line);
  }
  return frame.Finish();
}

Result<ClientResponse> ParseClientResponse(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(FrameReader frame,
                          FrameReader::Open(text, kResponseFormat));
  ClientResponse response;
  FUSION_ASSIGN_OR_RETURN(response.ok,
                          ParseWireOk(frame.head(), kResponseFormat.what));
  std::string_view key, value;
  while (frame.Next(&key, &value)) {
    if (key == "error") {
      FUSION_RETURN_IF_ERROR(ParseWireError(value, &response.error_code,
                                            &response.error_message));
    } else if (key == "server") {
      FUSION_ASSIGN_OR_RETURN(response.server, UnescapeWireText(value));
    } else if (key == "ticket") {
      FUSION_ASSIGN_OR_RETURN(response.ticket, ParseWireU64(key, value));
    } else if (key == "state") {
      response.state = value;
    } else if (key == "item") {
      FUSION_ASSIGN_OR_RETURN(Value v, ParseWireValue(value));
      response.items.push_back(std::move(v));
    } else if (key == "cost") {
      FUSION_ASSIGN_OR_RETURN(response.cost, ParseWireDouble(key, value));
    } else if (key == "source-queries") {
      FUSION_ASSIGN_OR_RETURN(response.source_queries,
                              ParseWireCount(key, value));
    } else if (key == "cache-hits") {
      FUSION_ASSIGN_OR_RETURN(response.cache_hits, ParseWireCount(key, value));
    } else if (key == "cache-misses") {
      FUSION_ASSIGN_OR_RETURN(response.cache_misses,
                              ParseWireCount(key, value));
    } else if (key == "items-sent") {
      FUSION_ASSIGN_OR_RETURN(response.items_sent, ParseWireCount(key, value));
    } else if (key == "items-received") {
      FUSION_ASSIGN_OR_RETURN(response.items_received,
                              ParseWireCount(key, value));
    } else if (key == "cache-containment") {
      FUSION_ASSIGN_OR_RETURN(response.cache_containment_hits,
                              ParseWireCount(key, value));
    } else if (key == "calibration-cost") {
      FUSION_ASSIGN_OR_RETURN(response.calibration_cost,
                              ParseWireDouble(key, value));
    } else if (key == "complete") {
      FUSION_ASSIGN_OR_RETURN(response.complete, ParseWireYesNo(key, value));
    } else if (key == "features") {
      response.features = SplitWireCsv(value);
    } else if (key == "stats") {
      FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(value));
      response.stats_lines.push_back(std::move(line));
    } else if (key == "explain") {
      FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(value));
      response.explain_lines.push_back(std::move(line));
    }
    // Unknown fields are ignored (see ParseClientRequest).
  }
  FUSION_RETURN_IF_ERROR(frame.status());
  return response;
}

ClientResponse ClientErrorResponse(const Status& status) {
  ClientResponse response;
  response.ok = false;
  response.error_code = status.code();
  response.error_message = status.message();
  return response;
}

}  // namespace fusion
