#ifndef FUSION_PROTOCOL_WIRE_H_
#define FUSION_PROTOCOL_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace fusion {

/// The frame codec both line protocols share — FUSIONP/1 (protocol/
/// message.h) and FUSIONQ/1 (protocol/client_protocol.h) keep only a verb
/// table and their field handling. A frame is `<MAGIC> <head>` (a request's
/// verb, a response's OK|ERROR), then one `<key> <value>` field per line
/// (blank lines skipped), then `end`. Text values escape newline and
/// backslash; numbers are plain decimal; error codes travel by
/// StatusCodeName.

/// A dialect's frame shape; `what` names it in parse errors.
struct FrameFormat {
  std::string_view magic;
  size_t max_line_bytes;
  const char* what;
};

/// Appends `text` with newline and backslash escaped.
void AppendWireText(std::string& out, std::string_view text);
/// Appends a Value as a field: `null`, `i:<n>`, `d:<%.17g>`, `s:<escaped>`.
void AppendWireValue(std::string& out, const Value& value);

/// Builds one frame, fields in call order; Finish() appends `end`.
class FrameWriter {
 public:
  FrameWriter(std::string_view magic, std::string_view head) {
    out_.reserve(128);
    Field(magic, head);
  }
  FrameWriter& Field(std::string_view key, std::string_view raw_value) {
    Key(key) += raw_value;
    return EndLine();
  }
  FrameWriter& Text(std::string_view key, std::string_view text) {
    AppendWireText(Key(key), text);
    return EndLine();
  }
  FrameWriter& Item(std::string_view key, const Value& value) {
    AppendWireValue(Key(key), value);
    return EndLine();
  }
  FrameWriter& U64(std::string_view key, uint64_t value) {
    return Field(key, std::to_string(value));
  }
  FrameWriter& Double(std::string_view key, double value);  // %.17g
  /// Comma-joined tokens (feature lists).
  FrameWriter& Csv(std::string_view key, const std::vector<std::string>& csv);
  /// `error <CodeName> <escaped message>`.
  FrameWriter& Error(StatusCode code, std::string_view message) {
    AppendWireText((Key("error") += StatusCodeName(code)) += ' ', message);
    return EndLine();
  }
  std::string Finish() {
    out_ += "end\n";
    return std::move(out_);
  }

 private:
  std::string& Key(std::string_view key) { return (out_ += key) += ' '; }
  FrameWriter& EndLine() {
    out_ += '\n';
    return *this;
  }

  std::string out_;
};

/// Walks one frame in place: Open checks the magic and exposes the rest of
/// the first line as head(); Next yields each field until `end`. A line over
/// the format's cap or a missing `end` makes Next return false with a
/// kParseError in status(). Callers skip unknown keys, so a newer peer's
/// optional fields degrade gracefully.
class FrameReader {
 public:
  static Result<FrameReader> Open(std::string_view text,
                                  const FrameFormat& format);
  std::string_view head() const { return head_; }
  bool Next(std::string_view* key, std::string_view* value);
  const Status& status() const { return status_; }

 private:
  FrameReader(std::string_view rest, const FrameFormat& format)
      : rest_(rest), format_(&format) {}
  bool NextLine(std::string_view* line);

  std::string_view rest_;
  const FrameFormat* format_;
  std::string_view head_;
  Status status_;
};

/// A verb table entry: an enum value and its wire name.
template <typename Kind>
struct WireVerb {
  Kind kind;
  const char* name;
};

template <typename Kind, size_t N>
const char* WireVerbName(const WireVerb<Kind> (&verbs)[N], Kind kind) {
  for (const WireVerb<Kind>& verb : verbs) {
    if (verb.kind == kind) return verb.name;
  }
  return "?";
}

template <typename Kind, size_t N>
Result<Kind> ParseWireVerb(const WireVerb<Kind> (&verbs)[N],
                           std::string_view name, const char* what) {
  for (const WireVerb<Kind>& verb : verbs) {
    if (name == verb.name) return verb.kind;
  }
  return Status::ParseError(std::string("unknown ") + what +
                            " verb: " + std::string(name));
}

/// A response head: true for OK, false for ERROR.
Result<bool> ParseWireOk(std::string_view head, const char* what);
/// Strict numbers: non-empty, nothing but the number, no overflow.
Result<uint64_t> ParseWireU64(std::string_view key, std::string_view text);
Result<size_t> ParseWireCount(std::string_view key, std::string_view text);
Result<double> ParseWireDouble(std::string_view key, std::string_view text);
/// Strict flags: exactly `yes` or `no`.
Result<bool> ParseWireYesNo(std::string_view key, std::string_view text);
Result<std::string> UnescapeWireText(std::string_view text);
Result<Value> ParseWireValue(std::string_view text);
/// Comma-separated tokens, empty ones dropped.
std::vector<std::string> SplitWireCsv(std::string_view text);
/// An `error` field's value: a StatusCodeName (or, from pre-taxonomy peers,
/// the bare enum integer), a space, the escaped message.
Status ParseWireError(std::string_view value, StatusCode* code,
                      std::string* message);

std::string SerializeValue(const Value& value);
Result<Value> ParseSerializedValue(const std::string& text);

}  // namespace fusion

#endif  // FUSION_PROTOCOL_WIRE_H_
