#include "protocol/message.h"

#include <cstdlib>

#include "common/str_util.h"

namespace fusion {
namespace {

constexpr char kMagic[] = "FUSIONP/1";

const char* RequestKindName(SourceRequest::Kind kind) {
  switch (kind) {
    case SourceRequest::Kind::kHello:
      return "HELLO";
    case SourceRequest::Kind::kSelect:
      return "SELECT";
    case SourceRequest::Kind::kSemiJoin:
      return "SEMIJOIN";
    case SourceRequest::Kind::kLoad:
      return "LOAD";
    case SourceRequest::Kind::kFetch:
      return "FETCH";
  }
  return "?";
}

Result<SourceRequest::Kind> ParseRequestKind(const std::string& name) {
  if (name == "HELLO") return SourceRequest::Kind::kHello;
  if (name == "SELECT") return SourceRequest::Kind::kSelect;
  if (name == "SEMIJOIN") return SourceRequest::Kind::kSemiJoin;
  if (name == "LOAD") return SourceRequest::Kind::kLoad;
  if (name == "FETCH") return SourceRequest::Kind::kFetch;
  return Status::ParseError("unknown request kind: " + name);
}

}  // namespace

std::string EscapeWireText(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeWireText(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) return Status::ParseError("dangling escape");
    ++i;
    if (s[i] == 'n') {
      out += '\n';
    } else if (s[i] == '\\') {
      out += '\\';
    } else {
      return Status::ParseError("bad escape sequence");
    }
  }
  return out;
}

std::pair<std::string, std::string> SplitWireKeyValue(const std::string& line) {
  const size_t space = line.find(' ');
  if (space == std::string::npos) return {line, ""};
  return {line.substr(0, space), line.substr(space + 1)};
}

Result<std::vector<std::string>> SplitWireLines(const std::string& text,
                                                size_t max_line_bytes,
                                                const char* what) {
  std::vector<std::string> lines = StrSplit(text, '\n');
  for (const std::string& line : lines) {
    if (line.size() > max_line_bytes) {
      return Status::ParseError(
          StrFormat("oversized %s line (%zu bytes; limit %zu)", what,
                    line.size(), max_line_bytes));
    }
  }
  return lines;
}

Result<StatusCode> ParseWireStatusCode(const std::string& text) {
  if (!text.empty() && text.find_first_not_of("0123456789") ==
                           std::string::npos) {
    const int raw = std::atoi(text.c_str());
    const size_t count = sizeof(kAllStatusCodes) / sizeof(kAllStatusCodes[0]);
    if (raw < 0 || static_cast<size_t>(raw) >= count) {
      return Status::ParseError("status code integer out of range: " + text);
    }
    return static_cast<StatusCode>(raw);
  }
  return StatusCodeFromName(text);
}

std::string SerializeValue(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "i:" + std::to_string(value.int64());
    case ValueType::kDouble:
      return "d:" + StrFormat("%.17g", value.dbl());
    case ValueType::kString:
      return "s:" + EscapeWireText(value.str());
  }
  return "null";
}

Result<Value> ParseSerializedValue(const std::string& text) {
  if (text == "null") return Value::Null();
  if (text.size() < 2 || text[1] != ':') {
    return Status::ParseError("bad serialized value: " + text);
  }
  const std::string payload = text.substr(2);
  switch (text[0]) {
    case 'i': {
      char* end = nullptr;
      const long long v = std::strtoll(payload.c_str(), &end, 10);
      if (end != payload.c_str() + payload.size() || payload.empty()) {
        return Status::ParseError("bad int64 payload: " + payload);
      }
      return Value(static_cast<int64_t>(v));
    }
    case 'd': {
      char* end = nullptr;
      const double v = std::strtod(payload.c_str(), &end);
      if (end != payload.c_str() + payload.size() || payload.empty()) {
        return Status::ParseError("bad double payload: " + payload);
      }
      return Value(v);
    }
    case 's': {
      FUSION_ASSIGN_OR_RETURN(std::string unescaped, UnescapeWireText(payload));
      return Value(std::move(unescaped));
    }
    default:
      return Status::ParseError("unknown value tag: " + text);
  }
}

std::string SerializeRequest(const SourceRequest& request) {
  std::string out = std::string(kMagic) + " " + RequestKindName(request.kind) +
                    "\n";
  if (!request.merge_attribute.empty()) {
    out += "merge " + request.merge_attribute + "\n";
  }
  if (!request.condition_text.empty()) {
    out += "cond " + EscapeWireText(request.condition_text) + "\n";
  }
  for (const Value& v : request.bindings) {
    out += "bind " + SerializeValue(v) + "\n";
  }
  if (request.trace_id != 0) {
    out += StrFormat("trace %llu %llu\n",
                     static_cast<unsigned long long>(request.trace_id),
                     static_cast<unsigned long long>(request.parent_span));
  }
  out += "end\n";
  return out;
}

Result<SourceRequest> ParseRequest(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(const std::vector<std::string> lines,
                          SplitWireLines(text, kMaxSourceProtocolLineBytes,
                                         "source request"));
  if (lines.empty()) return Status::ParseError("empty request");
  const auto [magic, kind_name] = SplitWireKeyValue(lines[0]);
  if (magic != kMagic) {
    return Status::ParseError("bad protocol magic: " + magic);
  }
  SourceRequest request;
  FUSION_ASSIGN_OR_RETURN(request.kind, ParseRequestKind(kind_name));
  bool terminated = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    if (lines[i] == "end") {
      terminated = true;
      break;
    }
    const auto [key, value] = SplitWireKeyValue(lines[i]);
    if (key == "merge") {
      request.merge_attribute = value;
    } else if (key == "cond") {
      FUSION_ASSIGN_OR_RETURN(request.condition_text, UnescapeWireText(value));
    } else if (key == "bind") {
      FUSION_ASSIGN_OR_RETURN(Value v, ParseSerializedValue(value));
      request.bindings.push_back(std::move(v));
    } else if (key == "trace") {
      const auto [trace_text, span_text] = SplitWireKeyValue(value);
      if (trace_text.empty() ||
          trace_text.find_first_not_of("0123456789") != std::string::npos) {
        return Status::ParseError("bad trace line: " + value);
      }
      request.trace_id = std::strtoull(trace_text.c_str(), nullptr, 10);
      if (!span_text.empty()) {
        if (span_text.find_first_not_of("0123456789") != std::string::npos) {
          return Status::ParseError("bad trace line: " + value);
        }
        request.parent_span = std::strtoull(span_text.c_str(), nullptr, 10);
      }
    }
    // Unknown fields are ignored for forward compatibility: peers act on
    // optional capabilities only after HELLO `features` negotiation.
  }
  if (!terminated) return Status::ParseError("request missing 'end'");
  return request;
}

std::string SerializeResponse(const SourceResponse& response) {
  std::string out = std::string(kMagic) + " " +
                    (response.ok ? "OK" : "ERROR") + "\n";
  if (!response.ok) {
    // Codes travel by name (the shared StatusCode taxonomy), so a reader of
    // the wire sees "error Unavailable ..." rather than a magic number.
    out += StrFormat("error %s %s\n", StatusCodeName(response.error_code),
                     EscapeWireText(response.error_message).c_str());
  }
  for (const Value& v : response.items) {
    out += "item " + SerializeValue(v) + "\n";
  }
  for (const std::string& line : response.relation_lines) {
    out += "relation-line " + EscapeWireText(line) + "\n";
  }
  if (!response.name.empty()) out += "name " + response.name + "\n";
  if (!response.semijoin_support.empty()) {
    out += "semijoin " + response.semijoin_support + "\n";
  }
  out += std::string("load ") + (response.supports_load ? "yes" : "no") + "\n";
  if (!response.features.empty()) {
    std::string joined;
    for (const std::string& f : response.features) {
      if (!joined.empty()) joined += ",";
      joined += f;
    }
    out += "features " + joined + "\n";
  }
  for (const ChargeSummary& c : response.charges) {
    out += StrFormat("charge %s %zu %zu %zu %.17g\n", c.kind.c_str(),
                     c.items_sent, c.items_received, c.tuples_scanned, c.cost);
  }
  out += "end\n";
  return out;
}

Result<SourceResponse> ParseResponse(const std::string& text) {
  FUSION_ASSIGN_OR_RETURN(const std::vector<std::string> lines,
                          SplitWireLines(text, kMaxSourceProtocolLineBytes,
                                         "source response"));
  if (lines.empty()) return Status::ParseError("empty response");
  const auto [magic, status_name] = SplitWireKeyValue(lines[0]);
  if (magic != kMagic) {
    return Status::ParseError("bad protocol magic: " + magic);
  }
  SourceResponse response;
  if (status_name == "OK") {
    response.ok = true;
  } else if (status_name == "ERROR") {
    response.ok = false;
  } else {
    return Status::ParseError("bad response status: " + status_name);
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
    } else if (key == "item") {
      FUSION_ASSIGN_OR_RETURN(Value v, ParseSerializedValue(value));
      response.items.push_back(std::move(v));
    } else if (key == "relation-line") {
      FUSION_ASSIGN_OR_RETURN(std::string line, UnescapeWireText(value));
      response.relation_lines.push_back(std::move(line));
    } else if (key == "name") {
      response.name = value;
    } else if (key == "semijoin") {
      response.semijoin_support = value;
    } else if (key == "load") {
      response.supports_load = value == "yes";
    } else if (key == "features") {
      for (const std::string& f : StrSplit(value, ',')) {
        if (!f.empty()) response.features.push_back(f);
      }
    } else if (key == "charge") {
      const std::vector<std::string> parts = StrSplit(value, ' ');
      if (parts.size() != 5) {
        return Status::ParseError("bad charge line: " + value);
      }
      ChargeSummary c;
      c.kind = parts[0];
      c.items_sent = static_cast<size_t>(std::atoll(parts[1].c_str()));
      c.items_received = static_cast<size_t>(std::atoll(parts[2].c_str()));
      c.tuples_scanned = static_cast<size_t>(std::atoll(parts[3].c_str()));
      c.cost = std::atof(parts[4].c_str());
      response.charges.push_back(std::move(c));
    }
    // Unknown fields are ignored (see ParseRequest).
  }
  if (!terminated) return Status::ParseError("response missing 'end'");
  return response;
}

}  // namespace fusion
