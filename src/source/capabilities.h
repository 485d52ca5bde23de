#ifndef FUSION_SOURCE_CAPABILITIES_H_
#define FUSION_SOURCE_CAPABILITIES_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace fusion {

/// How a source can process semijoin queries (Section 2.3 of the paper).
enum class SemijoinSupport {
  /// The wrapper accepts sjq(c, R, X) directly: one round trip, the whole
  /// semijoin set shipped in one message.
  kNative,
  /// The source only evaluates selections of the form `c AND M = m` for a
  /// passed binding m; the mediator emulates sjq with |X| selection queries.
  kPassedBindingsOnly,
  /// The source cannot restrict on M at all; semijoins are impossible
  /// (infinite cost — never chosen by any optimizer).
  kUnsupported,
};

/// The one token table for SemijoinSupport — catalog configs
/// (`semijoin = ...`) and FUSIONP/1 HELLO responses both speak it:
/// native | bindings | none. Parsing ignores case.
const char* SemijoinSupportName(SemijoinSupport s);
Result<SemijoinSupport> ParseSemijoinSupport(std::string_view name);

/// What operations a source's wrapper exports.
struct Capabilities {
  SemijoinSupport semijoin = SemijoinSupport::kNative;
  /// Whether lq(R) — loading the entire source — is offered.
  bool supports_load = true;

  std::string ToString() const;
};

/// Cost parameters of talking to one source across the (simulated) network.
/// All costs are in abstract "cost units"; the paper's model only requires
/// they be non-negative and additive per source query.
struct NetworkProfile {
  /// Fixed cost per query message round trip (latency + per-request work).
  double query_overhead = 10.0;
  /// Cost per item shipped mediator -> source (semijoin sets, bindings).
  double cost_per_item_sent = 1.0;
  /// Cost per item shipped source -> mediator (answer sets).
  double cost_per_item_received = 1.0;
  /// Source-side per-tuple scan cost for evaluating one query.
  double processing_per_tuple = 0.01;
  /// lq(R) ships whole records, not just items; per-tuple multiplier on
  /// cost_per_item_received reflecting record width.
  double record_width_factor = 4.0;

  std::string ToString() const;
};

}  // namespace fusion

#endif  // FUSION_SOURCE_CAPABILITIES_H_
