#include "protocol/client_protocol.h"

#include <cstdlib>

#include "common/str_util.h"
#include "protocol/message.h"

namespace fusion {
namespace {

constexpr char kMagic[] = "FUSIONQ/1";

const char* RequestKindName(ClientRequest::Kind kind) {
  switch (kind) {
    case ClientRequest::Kind::kHello:
      return "HELLO";
    case ClientRequest::Kind::kSubmit:
      return "SUBMIT";
    case ClientRequest::Kind::kStatus:
      return "STATUS";
    case ClientRequest::Kind::kCancel:
      return "CANCEL";
    case ClientRequest::Kind::kStats:
      return "STATS";
    case ClientRequest::Kind::kInvalidate:
      return "INVALIDATE";
  }
  return "?";
}

Result<ClientRequest::Kind> ParseRequestKind(const std::string& name) {
  if (name == "HELLO") return ClientRequest::Kind::kHello;
  if (name == "SUBMIT") return ClientRequest::Kind::kSubmit;
  if (name == "STATUS") return ClientRequest::Kind::kStatus;
  if (name == "CANCEL") return ClientRequest::Kind::kCancel;
  if (name == "STATS") return ClientRequest::Kind::kStats;
  if (name == "INVALIDATE") return ClientRequest::Kind::kInvalidate;
  return Status::ParseError("unknown client request kind: " + name);
}

std::string JoinFeatures(const std::vector<std::string>& features) {
  std::string out;
  for (const std::string& f : features) {
    if (!out.empty()) out += ",";
    out += f;
  }
  return out;
}

std::vector<std::string> SplitFeatures(const std::string& text) {
  std::vector<std::string> out;
  for (const std::string& f : StrSplit(text, ',')) {
    if (!f.empty()) out.push_back(f);
  }
  return out;
}

Result<uint64_t> ParseU64(const std::string& key, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::ParseError("bad " + key + ": " + text);
  }
  return static_cast<uint64_t>(std::strtoull(text.c_str(), nullptr, 10));
}

Result<uint64_t> ParseTicket(const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::ParseError("bad ticket: " + text);
  }
  return static_cast<uint64_t>(std::strtoull(text.c_str(), nullptr, 10));
}

Result<size_t> ParseCount(const std::string& key, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::ParseError("bad " + key + " count: " + text);
  }
  return static_cast<size_t>(std::strtoull(text.c_str(), nullptr, 10));
}

}  // namespace

std::vector<std::string> ClientProtocolFeatures() {
  return FeatureSet::All().Names();
}

std::string SerializeClientRequest(const ClientRequest& request) {
  std::string out =
      std::string(kMagic) + " " + RequestKindName(request.kind) + "\n";
  if (!request.client_id.empty()) {
    out += "client " + EscapeWireText(request.client_id) + "\n";
  }
  if (!request.sql.empty()) {
    out += "sql " + EscapeWireText(request.sql) + "\n";
  }
  if (request.kind == ClientRequest::Kind::kStatus ||
      request.kind == ClientRequest::Kind::kCancel) {
    out += "ticket " + std::to_string(request.ticket) + "\n";
  }
  if (request.kind == ClientRequest::Kind::kSubmit && !request.wait) {
    out += "wait no\n";
  }
  if (request.kind == ClientRequest::Kind::kSubmit && request.explain) {
    out += "explain yes\n";
  }
  if (request.kind == ClientRequest::Kind::kHello &&
      !request.features.empty()) {
    out += "features " + JoinFeatures(request.features) + "\n";
  }
  if (request.kind == ClientRequest::Kind::kSubmit && request.trace_id != 0) {
    out += "trace-id " + std::to_string(request.trace_id) + "\n";
    if (request.parent_span != 0) {
      out += "parent-span " + std::to_string(request.parent_span) + "\n";
    }
  }
  if (request.kind == ClientRequest::Kind::kSubmit && request.request_id != 0) {
    out += "request-id " + std::to_string(request.request_id) + "\n";
  }
  if (request.kind == ClientRequest::Kind::kInvalidate) {
    out += "source " + EscapeWireText(request.source) + "\n";
    if (request.version != 0) {
      out += "version " + std::to_string(request.version) + "\n";
    }
  }
  out += "end\n";
  return out;
}

Result<ClientRequest> ParseClientRequest(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(const std::vector<std::string> lines,
                          SplitWireLines(text, kMaxClientProtocolLineBytes,
                                         "client request"));
  if (lines.empty()) return Status::ParseError("empty client request");
  const auto [magic, kind_name] = SplitWireKeyValue(lines[0]);
  if (magic != kMagic) {
    return Status::ParseError("bad protocol magic: " + magic);
  }
  ClientRequest request;
  FUSION_ASSIGN_OR_RETURN(request.kind, ParseRequestKind(kind_name));
  bool terminated = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    if (lines[i] == "end") {
      terminated = true;
      break;
    }
    const auto [key, value] = SplitWireKeyValue(lines[i]);
    if (key == "client") {
      FUSION_ASSIGN_OR_RETURN(request.client_id, UnescapeWireText(value));
    } else if (key == "sql") {
      FUSION_ASSIGN_OR_RETURN(request.sql, UnescapeWireText(value));
    } else if (key == "ticket") {
      FUSION_ASSIGN_OR_RETURN(request.ticket, ParseTicket(value));
    } else if (key == "wait") {
      request.wait = value != "no";
    } else if (key == "explain") {
      request.explain = value == "yes";
    } else if (key == "features") {
      request.features = SplitFeatures(value);
    } else if (key == "trace-id") {
      FUSION_ASSIGN_OR_RETURN(request.trace_id, ParseU64(key, value));
    } else if (key == "parent-span") {
      FUSION_ASSIGN_OR_RETURN(request.parent_span, ParseU64(key, value));
    } else if (key == "request-id") {
      FUSION_ASSIGN_OR_RETURN(request.request_id, ParseU64(key, value));
    } else if (key == "source") {
      FUSION_ASSIGN_OR_RETURN(request.source, UnescapeWireText(value));
    } else if (key == "version") {
      FUSION_ASSIGN_OR_RETURN(request.version, ParseU64(key, value));
    }
    // Unknown fields are ignored: a newer peer may send fields this build
    // does not know, and must be able to do so without negotiating first
    // (negotiation itself rides on HELLO fields).
  }
  if (!terminated) return Status::ParseError("client request missing 'end'");
  return request;
}

std::string SerializeClientResponse(const ClientResponse& response) {
  std::string out = std::string(kMagic) + " " +
                    (response.ok ? "OK" : "ERROR") + "\n";
  if (!response.ok) {
    out += StrFormat("error %s %s\n", StatusCodeName(response.error_code),
                     EscapeWireText(response.error_message).c_str());
  }
  if (!response.server.empty()) {
    out += "server " + EscapeWireText(response.server) + "\n";
  }
  if (response.ticket != 0) {
    out += "ticket " + std::to_string(response.ticket) + "\n";
  }
  if (!response.state.empty()) out += "state " + response.state + "\n";
  for (const Value& v : response.items) {
    out += "item " + SerializeValue(v) + "\n";
  }
  if (response.source_queries > 0 || !response.items.empty() ||
      response.cost > 0.0) {
    out += StrFormat("cost %.17g\n", response.cost);
    out += StrFormat("source-queries %zu\n", response.source_queries);
    out += StrFormat("cache-hits %zu\n", response.cache_hits);
    out += StrFormat("cache-misses %zu\n", response.cache_misses);
    out += StrFormat("items-sent %zu\n", response.items_sent);
    out += StrFormat("items-received %zu\n", response.items_received);
  }
  if (response.cache_containment_hits > 0) {
    out += StrFormat("cache-containment %zu\n",
                     response.cache_containment_hits);
  }
  if (response.calibration_cost > 0.0) {
    out += StrFormat("calibration-cost %.17g\n", response.calibration_cost);
  }
  if (!response.complete) out += "complete no\n";
  if (!response.features.empty()) {
    out += "features " + JoinFeatures(response.features) + "\n";
  }
  for (const std::string& line : response.stats_lines) {
    out += "stats " + EscapeWireText(line) + "\n";
  }
  for (const std::string& line : response.explain_lines) {
    out += "explain " + EscapeWireText(line) + "\n";
  }
  out += "end\n";
  return out;
}

Result<ClientResponse> ParseClientResponse(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(const std::vector<std::string> lines,
                          SplitWireLines(text, kMaxClientProtocolLineBytes,
                                         "client response"));
  if (lines.empty()) return Status::ParseError("empty client response");
  const auto [magic, status_name] = SplitWireKeyValue(lines[0]);
  if (magic != kMagic) {
    return Status::ParseError("bad protocol magic: " + magic);
  }
  ClientResponse response;
  if (status_name == "OK") {
    response.ok = true;
  } else if (status_name == "ERROR") {
    response.ok = false;
  } else {
    return Status::ParseError("bad client response status: " + status_name);
  }
  bool terminated = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    if (lines[i] == "end") {
      terminated = true;
      break;
    }
    const auto [key, value] = SplitWireKeyValue(lines[i]);
    if (key == "error") {
      const auto [code_text, message] = SplitWireKeyValue(value);
      FUSION_ASSIGN_OR_RETURN(response.error_code,
                              ParseWireStatusCode(code_text));
      FUSION_ASSIGN_OR_RETURN(response.error_message,
                              UnescapeWireText(message));
    } else if (key == "server") {
      FUSION_ASSIGN_OR_RETURN(response.server, UnescapeWireText(value));
    } else if (key == "ticket") {
      FUSION_ASSIGN_OR_RETURN(response.ticket, ParseTicket(value));
    } else if (key == "state") {
      response.state = value;
    } else if (key == "item") {
      FUSION_ASSIGN_OR_RETURN(Value v, ParseSerializedValue(value));
      response.items.push_back(std::move(v));
    } else if (key == "cost") {
      response.cost = std::atof(value.c_str());
    } else if (key == "source-queries") {
      FUSION_ASSIGN_OR_RETURN(response.source_queries,
                              ParseCount(key, value));
    } else if (key == "cache-hits") {
      FUSION_ASSIGN_OR_RETURN(response.cache_hits, ParseCount(key, value));
    } else if (key == "cache-misses") {
      FUSION_ASSIGN_OR_RETURN(response.cache_misses, ParseCount(key, value));
    } else if (key == "items-sent") {
      FUSION_ASSIGN_OR_RETURN(response.items_sent, ParseCount(key, value));
    } else if (key == "items-received") {
      FUSION_ASSIGN_OR_RETURN(response.items_received, ParseCount(key, value));
    } else if (key == "cache-containment") {
      FUSION_ASSIGN_OR_RETURN(response.cache_containment_hits,
                              ParseCount(key, value));
    } else if (key == "calibration-cost") {
      response.calibration_cost = std::atof(value.c_str());
    } else if (key == "complete") {
      response.complete = value != "no";
    } else if (key == "features") {
      response.features = SplitFeatures(value);
    } else if (key == "stats") {
      FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(value));
      response.stats_lines.push_back(std::move(line));
    } else if (key == "explain") {
      FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(value));
      response.explain_lines.push_back(std::move(line));
    }
    // Unknown fields are ignored (see ParseClientRequest).
  }
  if (!terminated) return Status::ParseError("client response missing 'end'");
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
