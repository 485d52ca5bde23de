#include "source/capabilities.h"

#include <utility>

#include "common/str_util.h"

namespace fusion {

namespace {

constexpr std::pair<SemijoinSupport, const char*> kSemijoinNames[] = {
    {SemijoinSupport::kNative, "native"},
    {SemijoinSupport::kPassedBindingsOnly, "bindings"},
    {SemijoinSupport::kUnsupported, "none"},
};

}  // namespace

const char* SemijoinSupportName(SemijoinSupport s) {
  for (const auto& [support, name] : kSemijoinNames) {
    if (support == s) return name;
  }
  return "none";
}

Result<SemijoinSupport> ParseSemijoinSupport(std::string_view name) {
  for (const auto& [support, token] : kSemijoinNames) {
    if (EqualsIgnoreCase(name, token)) return support;
  }
  return Status::ParseError("semijoin must be native|bindings|none, got " +
                            std::string(name));
}

std::string Capabilities::ToString() const {
  return StrFormat("caps(semijoin=%s, load=%s)", SemijoinSupportName(semijoin),
                   supports_load ? "yes" : "no");
}

std::string NetworkProfile::ToString() const {
  return StrFormat(
      "net(overhead=%.3g, send=%.3g, recv=%.3g, proc=%.3g, width=%.3g)",
      query_overhead, cost_per_item_sent, cost_per_item_received,
      processing_per_tuple, record_width_factor);
}

}  // namespace fusion
