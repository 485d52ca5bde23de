#include "cli/catalog_config.h"

#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "common/file_util.h"
#include "common/str_util.h"
#include "protocol/remote_source.h"
#include "relational/relation.h"
#include "source/flaky_source.h"
#include "source/simulated_source.h"

namespace fusion {
namespace {

/// Strips an inline `# comment` (outside of any quoting; the config format
/// has no quoted strings) and trims whitespace.
std::string StripComment(std::string_view line) {
  const size_t hash = line.find('#');
  if (hash != std::string_view::npos) line = line.substr(0, hash);
  return std::string(StrTrim(line));
}

Result<double> ParseDouble(const std::string& value, const std::string& key) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end != value.c_str() + value.size() || value.empty()) {
    return Status::ParseError("bad numeric value for '" + key + "': " + value);
  }
  if (v < 0) {
    return Status::ParseError("'" + key + "' must be non-negative");
  }
  return v;
}

Result<bool> ParseYesNo(const std::string& value, const std::string& key) {
  if (EqualsIgnoreCase(value, "yes")) return true;
  if (EqualsIgnoreCase(value, "no")) return false;
  return Status::ParseError(key + " must be yes|no, got " + value);
}

/// The NetworkProfile keys of a source section.
constexpr std::pair<const char*, double NetworkProfile::*> kNetworkKeys[] = {
    {"overhead", &NetworkProfile::query_overhead},
    {"send", &NetworkProfile::cost_per_item_sent},
    {"recv", &NetworkProfile::cost_per_item_received},
    {"proc", &NetworkProfile::processing_per_tuple},
    {"width", &NetworkProfile::record_width_factor},
};

Status ApplyKeyValue(SourceSpecConfig& spec, const std::string& key,
                     const std::string& value) {
  if (key == "csv") {
    spec.csv_path = value;
    return Status::Ok();
  }
  if (key == "semijoin") {
    FUSION_ASSIGN_OR_RETURN(spec.capabilities.semijoin,
                            ParseSemijoinSupport(value));
    return Status::Ok();
  }
  if (key == "load") {
    FUSION_ASSIGN_OR_RETURN(spec.capabilities.supports_load,
                            ParseYesNo(value, key));
    return Status::Ok();
  }
  for (const auto& [name, field] : kNetworkKeys) {
    if (key == name) {
      FUSION_ASSIGN_OR_RETURN(spec.network.*field, ParseDouble(value, key));
      return Status::Ok();
    }
  }
  if (key == "outage") {
    FUSION_ASSIGN_OR_RETURN(spec.outage, ParseYesNo(value, key));
    return Status::Ok();
  }
  if (key == "flaky") {
    FUSION_ASSIGN_OR_RETURN(spec.flaky_probability, ParseDouble(value, key));
    if (spec.flaky_probability > 1.0) {
      return Status::ParseError("flaky must be in [0, 1], got " + value);
    }
    return Status::Ok();
  }
  if (key == "flaky_seed") {
    FUSION_ASSIGN_OR_RETURN(const double seed, ParseDouble(value, key));
    spec.flaky_seed = static_cast<uint64_t>(seed);
    return Status::Ok();
  }
  if (key == "endpoint") {
    // The fleet's bootstrap path: every replica line must be a usable
    // host:port *now*, not at first dial. Stray whitespace (a config edited
    // by hand) is trimmed; an empty host, a non-numeric or out-of-range
    // port, or embedded whitespace is a parse error naming the value; and a
    // duplicate of an earlier replica line is dropped silently — dialing
    // the same address twice only doubles the failover latency.
    const std::string endpoint(StrTrim(value));
    const size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) {
      return Status::ParseError("endpoint must be host:port, got " + value);
    }
    const std::string host = endpoint.substr(0, colon);
    const std::string port = endpoint.substr(colon + 1);
    if (host.empty()) {
      return Status::ParseError("endpoint has an empty host: " + value);
    }
    if (endpoint.find_first_of(" \t") != std::string::npos) {
      return Status::ParseError("endpoint contains whitespace: " + value);
    }
    if (port.empty() ||
        port.find_first_not_of("0123456789") != std::string::npos) {
      return Status::ParseError("endpoint port is not numeric: " + value);
    }
    const long port_number = std::strtol(port.c_str(), nullptr, 10);
    if (port_number < 1 || port_number > 65535) {
      return Status::ParseError("endpoint port out of range: " + value);
    }
    for (const std::string& existing : spec.endpoints) {
      if (existing == endpoint) return Status::Ok();  // duplicate replica
    }
    spec.endpoints.push_back(endpoint);
    return Status::Ok();
  }
  return Status::ParseError("unknown key '" + key + "' in source section");
}

}  // namespace

Result<std::vector<SourceSpecConfig>> ParseCatalogConfig(
    const std::string& text) {
  std::vector<SourceSpecConfig> specs;
  bool in_source = false;
  size_t line_no = 0;
  for (const std::string& raw : StrSplit(text, '\n')) {
    ++line_no;
    const std::string line = StripComment(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        return Status::ParseError(
            StrFormat("line %zu: unterminated section header", line_no));
      }
      const std::string header(StrTrim(line.substr(1, line.size() - 2)));
      if (!StartsWith(ToLower(header), "source ")) {
        return Status::ParseError(
            StrFormat("line %zu: only [source <name>] sections are "
                      "supported, got [%s]",
                      line_no, header.c_str()));
      }
      SourceSpecConfig spec;
      spec.name = std::string(StrTrim(header.substr(7)));
      if (spec.name.empty()) {
        return Status::ParseError(
            StrFormat("line %zu: source section needs a name", line_no));
      }
      specs.push_back(std::move(spec));
      in_source = true;
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::ParseError(
          StrFormat("line %zu: expected key = value, got '%s'", line_no,
                    line.c_str()));
    }
    if (!in_source) {
      return Status::ParseError(
          StrFormat("line %zu: key outside a [source ...] section", line_no));
    }
    const std::string key = ToLower(StrTrim(line.substr(0, eq)));
    const std::string value(StrTrim(line.substr(eq + 1)));
    FUSION_RETURN_IF_ERROR(ApplyKeyValue(specs.back(), key, value));
  }
  if (specs.empty()) {
    return Status::ParseError("config defines no sources");
  }
  for (const SourceSpecConfig& spec : specs) {
    if (spec.csv_path.empty() && spec.endpoints.empty()) {
      return Status::ParseError("source '" + spec.name +
                                "' has no csv path (and no endpoints)");
    }
    if (!spec.csv_path.empty() && !spec.endpoints.empty()) {
      return Status::ParseError(
          "source '" + spec.name +
          "': csv and endpoint are mutually exclusive (remote sources serve "
          "their own data)");
    }
  }
  return specs;
}

Result<std::unique_ptr<SourceWrapper>> LoadSourceWrapper(
    const SourceSpecConfig& spec, const std::string& base_dir) {
  std::unique_ptr<SourceWrapper> source;
  if (!spec.endpoints.empty()) {
    // Remote source: the data (and its metering) lives behind the
    // endpoints; failover across the replicas is RemoteSource's job.
    auto remote = RemoteSource::ConnectTcp(spec.endpoints);
    if (!remote.ok()) {
      return Status(remote.status().code(),
                    "source '" + spec.name +
                        "': " + remote.status().message());
    }
    if (remote.value()->name() != spec.name) {
      return Status::InvalidArgument(
          "source '" + spec.name + "': endpoints serve source '" +
          remote.value()->name() + "'");
    }
    source = std::move(remote).value();
  } else {
    std::string path = spec.csv_path;
    if (!path.empty() && path.front() != '/' && !base_dir.empty()) {
      path = base_dir + "/" + path;
    }
    FUSION_ASSIGN_OR_RETURN(const std::string csv, ReadFileToString(path));
    auto relation = RelationFromCsv(csv);
    if (!relation.ok()) {
      return Status(relation.status().code(),
                    "source '" + spec.name + "' (" + path +
                        "): " + relation.status().message());
    }
    source = std::make_unique<SimulatedSource>(
        spec.name, std::move(relation).value(), spec.capabilities,
        spec.network);
  }
  if (spec.outage || spec.flaky_probability > 0.0) {
    FlakySource::Options flaky;
    flaky.failure_probability = spec.flaky_probability;
    flaky.seed = spec.flaky_seed;
    if (spec.outage) {
      // The source is down for good: every call, from the first on.
      flaky.outage_start = 0;
      flaky.outage_end = std::numeric_limits<size_t>::max();
    }
    source = std::make_unique<FlakySource>(std::move(source), flaky);
  }
  return source;
}

Result<SourceCatalog> LoadCatalog(const std::vector<SourceSpecConfig>& specs,
                                  const std::string& base_dir) {
  SourceCatalog catalog;
  for (const SourceSpecConfig& spec : specs) {
    FUSION_ASSIGN_OR_RETURN(std::unique_ptr<SourceWrapper> source,
                            LoadSourceWrapper(spec, base_dir));
    FUSION_RETURN_IF_ERROR(catalog.Add(std::move(source)));
  }
  return catalog;
}

Result<SourceCatalog> LoadCatalogFromFile(const std::string& path) {
  FUSION_ASSIGN_OR_RETURN(const std::string text, ReadFileToString(path));
  FUSION_ASSIGN_OR_RETURN(const std::vector<SourceSpecConfig> specs,
                          ParseCatalogConfig(text));
  const size_t slash = path.rfind('/');
  const std::string base_dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  return LoadCatalog(specs, base_dir);
}

}  // namespace fusion
