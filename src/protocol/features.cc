#include "protocol/features.h"

#include "protocol/wire.h"

namespace fusion {
namespace {

/// Registry order: also the order Names() emits, so HELLO lines are stable
/// across builds and tests can match them verbatim.
constexpr WireVerb<Feature> kFeatures[] = {
    {Feature::kTrace, "trace"},
    {Feature::kStats, "stats"},
    {Feature::kExplain, "explain"},
    {Feature::kIdempotency, "idempotency"},
    {Feature::kSharding, "sharding"},
};

}  // namespace

const char* FeatureName(Feature feature) {
  return WireVerbName(kFeatures, feature);
}

bool ParseFeatureName(const std::string& name, Feature* out) {
  const Result<Feature> parsed = ParseWireVerb(kFeatures, name, "feature");
  if (parsed.ok()) *out = *parsed;
  return parsed.ok();
}

FeatureSet FeatureSet::All() {
  FeatureSet set;
  for (const WireVerb<Feature>& f : kFeatures) set.Add(f.kind);
  return set;
}

FeatureSet FeatureSet::FromNames(const std::vector<std::string>& names) {
  FeatureSet set;
  for (const std::string& name : names) {
    Feature f;
    if (ParseFeatureName(name, &f)) set.Add(f);
  }
  return set;
}

std::vector<std::string> FeatureSet::Names() const {
  std::vector<std::string> out;
  for (const WireVerb<Feature>& f : kFeatures) {
    if (Has(f.kind)) out.push_back(f.name);
  }
  return out;
}

}  // namespace fusion
