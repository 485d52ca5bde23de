#include "protocol/wire.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <iterator>

#include "common/str_util.h"

namespace fusion {
namespace {

/// Splits "key rest-of-line" on the first space ({line, ""} when none).
void SplitKeyValue(std::string_view line, std::string_view* key,
                   std::string_view* value) {
  const size_t space = line.find(' ');
  *key = line.substr(0, space);
  *value = space == std::string_view::npos ? std::string_view()
                                           : line.substr(space + 1);
}

template <typename T>
Result<T> ParseNumber(std::string_view key, std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    return Status::ParseError("bad " + std::string(key) + ": " +
                              std::string(text));
  }
  return value;
}

}  // namespace

void AppendWireText(std::string& out, std::string_view text) {
  for (char c : text) {
    if (c == '\\' || c == '\n') out += '\\';
    out += c == '\n' ? 'n' : c;
  }
}

void AppendWireValue(std::string& out, const Value& value) {
  char buf[32];
  switch (value.type()) {
    case ValueType::kNull:
      out += "null";
      return;
    case ValueType::kInt64:
      out += "i:" + std::to_string(value.int64());
      return;
    case ValueType::kDouble:
      std::snprintf(buf, sizeof(buf), "d:%.17g", value.dbl());
      out += buf;
      return;
    case ValueType::kString:
      AppendWireText(out += "s:", value.str());
      return;
  }
}

FrameWriter& FrameWriter::Double(std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return Field(key, buf);
}

FrameWriter& FrameWriter::Csv(std::string_view key,
                              const std::vector<std::string>& csv) {
  Key(key);
  for (size_t i = 0; i < csv.size(); ++i) {
    if (i > 0) out_ += ',';
    out_ += csv[i];
  }
  return EndLine();
}

Result<FrameReader> FrameReader::Open(std::string_view text,
                                      const FrameFormat& format) {
  // A non-null view even for "", so the first line always exists.
  FrameReader reader(text.data() == nullptr ? std::string_view("") : text,
                     format);
  std::string_view first, magic;
  if (!reader.NextLine(&first)) return reader.status_;
  SplitKeyValue(first, &magic, &reader.head_);
  if (magic != format.magic) {
    return Status::ParseError("bad protocol magic: " + std::string(magic));
  }
  return reader;
}

bool FrameReader::NextLine(std::string_view* line) {
  if (rest_.data() == nullptr) return false;  // past the last line
  const size_t newline = rest_.find('\n');
  *line = rest_.substr(0, newline);
  rest_ = newline == std::string_view::npos ? std::string_view()
                                            : rest_.substr(newline + 1);
  if (line->size() <= format_->max_line_bytes) return true;
  status_ = Status::ParseError(
      StrFormat("oversized %s line (%zu bytes; limit %zu)", format_->what,
                line->size(), format_->max_line_bytes));
  rest_ = std::string_view();
  return false;
}

bool FrameReader::Next(std::string_view* key, std::string_view* value) {
  std::string_view line;
  while (NextLine(&line)) {
    if (line == "end") return false;
    if (line.empty()) continue;
    SplitKeyValue(line, key, value);
    return true;
  }
  if (status_.ok()) {
    status_ = Status::ParseError(std::string(format_->what) +
                                 " missing 'end'");
  }
  return false;
}

Result<bool> ParseWireOk(std::string_view head, const char* what) {
  if (head == "OK" || head == "ERROR") return head == "OK";
  return Status::ParseError(std::string("bad ") + what +
                            " status: " + std::string(head));
}

Result<uint64_t> ParseWireU64(std::string_view key, std::string_view text) {
  return ParseNumber<uint64_t>(key, text);
}

Result<size_t> ParseWireCount(std::string_view key, std::string_view text) {
  return ParseNumber<size_t>(key, text);
}

Result<double> ParseWireDouble(std::string_view key, std::string_view text) {
  return ParseNumber<double>(key, text);
}

Result<bool> ParseWireYesNo(std::string_view key, std::string_view text) {
  if (text == "yes" || text == "no") return text == "yes";
  return Status::ParseError("bad " + std::string(key) + ": " +
                            std::string(text));
}

Result<std::string> UnescapeWireText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
    } else if (i + 1 >= text.size()) {
      return Status::ParseError("dangling escape");
    } else if (text[++i] == 'n' || text[i] == '\\') {
      out += text[i] == 'n' ? '\n' : '\\';
    } else {
      return Status::ParseError("bad escape sequence");
    }
  }
  return out;
}

Result<Value> ParseWireValue(std::string_view text) {
  if (text == "null") return Value::Null();
  const std::string_view payload =
      text.size() >= 2 ? text.substr(2) : std::string_view();
  if (text.size() >= 2 && text[1] == ':') {
    if (text[0] == 'i') {
      FUSION_ASSIGN_OR_RETURN(const int64_t v,
                              ParseNumber<int64_t>("int64 payload", payload));
      return Value(v);
    }
    if (text[0] == 'd') {
      FUSION_ASSIGN_OR_RETURN(const double v,
                              ParseWireDouble("double payload", payload));
      return Value(v);
    }
    if (text[0] == 's') {
      FUSION_ASSIGN_OR_RETURN(std::string s, UnescapeWireText(payload));
      return Value(std::move(s));
    }
  }
  return Status::ParseError("bad serialized value: " + std::string(text));
}

std::vector<std::string> SplitWireCsv(std::string_view text) {
  std::vector<std::string> out;
  for (size_t start = 0; start <= text.size();) {
    const size_t comma = std::min(text.find(',', start), text.size());
    if (comma > start) out.emplace_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

Status ParseWireError(std::string_view value, StatusCode* code,
                      std::string* message) {
  std::string_view code_text, message_text;
  SplitKeyValue(value, &code_text, &message_text);
  const Result<size_t> raw = ParseWireCount("status code", code_text);
  if (raw.ok()) {
    if (*raw >= std::size(kAllStatusCodes)) {
      return Status::ParseError("status code integer out of range: " +
                                std::string(code_text));
    }
    *code = static_cast<StatusCode>(*raw);
  } else {
    FUSION_ASSIGN_OR_RETURN(*code, StatusCodeFromName(std::string(code_text)));
  }
  FUSION_ASSIGN_OR_RETURN(*message, UnescapeWireText(message_text));
  return Status::Ok();
}

std::string SerializeValue(const Value& value) {
  std::string out;
  AppendWireValue(out, value);
  return out;
}

Result<Value> ParseSerializedValue(const std::string& text) {
  return ParseWireValue(text);
}

}  // namespace fusion
