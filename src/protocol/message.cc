#include "protocol/message.h"

#include "common/str_util.h"

namespace fusion {
namespace {

constexpr char kMagic[] = "FUSIONP/1";
constexpr FrameFormat kRequestFormat{kMagic, kMaxSourceProtocolLineBytes,
                                     "source request"};
constexpr FrameFormat kResponseFormat{kMagic, kMaxSourceProtocolLineBytes,
                                      "source response"};

constexpr WireVerb<SourceRequest::Kind> kVerbs[] = {
    {SourceRequest::Kind::kHello, "HELLO"},
    {SourceRequest::Kind::kSelect, "SELECT"},
    {SourceRequest::Kind::kSemiJoin, "SEMIJOIN"},
    {SourceRequest::Kind::kLoad, "LOAD"},
    {SourceRequest::Kind::kFetch, "FETCH"},
};

}  // namespace

std::string SerializeRequest(const SourceRequest& request) {
  FrameWriter frame(kMagic, WireVerbName(kVerbs, request.kind));
  if (!request.merge_attribute.empty()) {
    frame.Field("merge", request.merge_attribute);
  }
  if (!request.condition_text.empty()) {
    frame.Text("cond", request.condition_text);
  }
  for (const Value& v : request.bindings) frame.Item("bind", v);
  if (request.trace_id != 0) {
    frame.Field("trace", std::to_string(request.trace_id) + " " +
                             std::to_string(request.parent_span));
  }
  return frame.Finish();
}

Result<SourceRequest> ParseRequest(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(FrameReader frame,
                          FrameReader::Open(text, kRequestFormat));
  SourceRequest request;
  FUSION_ASSIGN_OR_RETURN(
      request.kind, ParseWireVerb(kVerbs, frame.head(), kRequestFormat.what));
  std::string_view key, value;
  while (frame.Next(&key, &value)) {
    if (key == "merge") {
      request.merge_attribute = value;
    } else if (key == "cond") {
      FUSION_ASSIGN_OR_RETURN(request.condition_text, UnescapeWireText(value));
    } else if (key == "bind") {
      FUSION_ASSIGN_OR_RETURN(Value v, ParseWireValue(value));
      request.bindings.push_back(std::move(v));
    } else if (key == "trace") {
      // `trace <trace-id> [<parent-span>]`.
      const size_t space = value.find(' ');
      FUSION_ASSIGN_OR_RETURN(request.trace_id,
                              ParseWireU64(key, value.substr(0, space)));
      if (space != std::string_view::npos) {
        FUSION_ASSIGN_OR_RETURN(
            request.parent_span,
            ParseWireU64("parent span", value.substr(space + 1)));
      }
    }
    // Unknown fields are ignored for forward compatibility: peers act on
    // optional capabilities only after HELLO `features` negotiation.
  }
  FUSION_RETURN_IF_ERROR(frame.status());
  return request;
}

std::string SerializeResponse(const SourceResponse& response) {
  FrameWriter frame(kMagic, response.ok ? "OK" : "ERROR");
  if (!response.ok) frame.Error(response.error_code, response.error_message);
  for (const Value& v : response.items) frame.Item("item", v);
  for (const std::string& line : response.relation_lines) {
    frame.Text("relation-line", line);
  }
  if (!response.name.empty()) frame.Field("name", response.name);
  if (!response.semijoin_support.empty()) {
    frame.Field("semijoin", response.semijoin_support);
  }
  frame.Field("load", response.supports_load ? "yes" : "no");
  if (!response.features.empty()) frame.Csv("features", response.features);
  for (const ChargeSummary& c : response.charges) {
    frame.Field("charge",
                StrFormat("%s %zu %zu %zu %.17g", c.kind.c_str(), c.items_sent,
                          c.items_received, c.tuples_scanned, c.cost));
  }
  return frame.Finish();
}

Result<SourceResponse> ParseResponse(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(FrameReader frame,
                          FrameReader::Open(text, kResponseFormat));
  SourceResponse response;
  FUSION_ASSIGN_OR_RETURN(response.ok,
                          ParseWireOk(frame.head(), kResponseFormat.what));
  std::string_view key, value;
  while (frame.Next(&key, &value)) {
    if (key == "error") {
      FUSION_RETURN_IF_ERROR(ParseWireError(value, &response.error_code,
                                            &response.error_message));
    } else if (key == "item") {
      FUSION_ASSIGN_OR_RETURN(Value v, ParseWireValue(value));
      response.items.push_back(std::move(v));
    } else if (key == "relation-line") {
      FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(value));
      response.relation_lines.push_back(std::move(line));
    } else if (key == "name") {
      response.name = value;
    } else if (key == "semijoin") {
      response.semijoin_support = value;
    } else if (key == "load") {
      FUSION_ASSIGN_OR_RETURN(response.supports_load,
                              ParseWireYesNo(key, value));
    } else if (key == "features") {
      response.features = SplitWireCsv(value);
    } else if (key == "charge") {
      // `charge <kind> <sent> <recv> <scanned> <cost>`.
      const std::vector<std::string> parts = StrSplit(std::string(value), ' ');
      if (parts.size() != 5) {
        return Status::ParseError("bad charge line: " + std::string(value));
      }
      ChargeSummary c;
      c.kind = parts[0];
      FUSION_ASSIGN_OR_RETURN(c.items_sent, ParseWireCount("sent", parts[1]));
      FUSION_ASSIGN_OR_RETURN(c.items_received,
                              ParseWireCount("recv", parts[2]));
      FUSION_ASSIGN_OR_RETURN(c.tuples_scanned,
                              ParseWireCount("scanned", parts[3]));
      FUSION_ASSIGN_OR_RETURN(c.cost, ParseWireDouble("cost", parts[4]));
      response.charges.push_back(std::move(c));
    }
    // Unknown fields are ignored (see ParseRequest).
  }
  FUSION_RETURN_IF_ERROR(frame.status());
  return response;
}

}  // namespace fusion
