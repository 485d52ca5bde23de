// fusionsd — the fusion source daemon.
//
// Serves ONE source from a catalog config over FUSIONP/1 TCP: the
// wrapper-side endpoint a mediator's RemoteSource dials. Run one fusionsd
// per source (or several per source, on different ports, for replica
// failover — every replica of a source serves the same data under the same
// name), then point a mediator catalog at them with `endpoint = host:port`
// lines instead of `csv = ...`.
//
// Usage:
//   fusionsd --catalog=<config.ini> --source=NAME
//            [--host=127.0.0.1] [--port=0] [--port-file=PATH]
//            [--chaos-drop-rate=P ... --chaos-seed=N]
//
// --port=0 (the default) binds an ephemeral port; the actual port is
// printed on the "serving" line and written to --port-file, so harnesses
// can spawn replicas without port bookkeeping. The --chaos-* flags inject
// seeded faults at this replica's edge (see protocol/chaos.h) — the way
// the chaos tests and drills abuse a "real" networked source.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cli/catalog_config.h"
#include "cli/client_flags.h"  // ParseFlagValue
#include "common/file_util.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "protocol/chaos.h"
#include "protocol/source_server.h"

namespace fusion {
namespace {

struct Args {
  std::string catalog_path;
  std::string source;  // which [source NAME] section to serve
  std::string host = "127.0.0.1";
  int port = 0;
  std::string port_file;
  ChaosPolicy chaos;
  bool chaos_seed_set = false;
  bool help = false;
};

void PrintUsage() {
  std::printf(
      "fusionsd — fusion source daemon (FUSIONP/1 over TCP)\n\n"
      "usage: fusionsd --catalog=FILE --source=NAME [options]\n\n"
      "  --catalog=FILE   INI catalog config naming the source's data\n"
      "  --source=NAME    which [source NAME] section to serve (may be\n"
      "                   omitted when the catalog has exactly one source)\n"
      "  --host=H         listen address (default 127.0.0.1)\n"
      "  --port=P         listen port; 0 = ephemeral (default), printed on\n"
      "                   startup\n"
      "  --port-file=PATH write the bound port here once serving (the\n"
      "                   readiness hook for replica-spawning scripts)\n"
      "  --chaos-drop-rate=P / --chaos-torn-rate=P / --chaos-delay-rate=P\n"
      "  --chaos-delay-ms=MS / --chaos-refuse-rate=P / --chaos-hang-rate=P\n"
      "  --chaos-hang-ms=MS / --chaos-seed=N\n"
      "                   seeded fault injection at this replica's edge\n"
      "                   (same meanings as fusionqd's --chaos-* flags)\n");
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (ParseFlagValue(a, "--catalog", &args.catalog_path)) continue;
    if (ParseFlagValue(a, "--source", &args.source)) continue;
    if (ParseFlagValue(a, "--host", &args.host)) continue;
    if (ParseFlagValue(a, "--port-file", &args.port_file)) continue;
    std::string number;
    if (ParseFlagValue(a, "--port", &number)) {
      args.port = std::atoi(number.c_str());
      if (args.port < 0 || args.port > 65535) {
        return Status::InvalidArgument("--port must be in [0, 65535]");
      }
      continue;
    }
    bool chaos_rate = false;
    double* rate = nullptr;
    if (ParseFlagValue(a, "--chaos-drop-rate", &number)) {
      rate = &args.chaos.drop_rate;
      chaos_rate = true;
    } else if (ParseFlagValue(a, "--chaos-torn-rate", &number)) {
      rate = &args.chaos.torn_write_rate;
      chaos_rate = true;
    } else if (ParseFlagValue(a, "--chaos-delay-rate", &number)) {
      rate = &args.chaos.delay_rate;
      chaos_rate = true;
    } else if (ParseFlagValue(a, "--chaos-refuse-rate", &number)) {
      rate = &args.chaos.accept_refuse_rate;
      chaos_rate = true;
    } else if (ParseFlagValue(a, "--chaos-hang-rate", &number)) {
      rate = &args.chaos.hang_rate;
      chaos_rate = true;
    }
    if (chaos_rate) {
      *rate = std::atof(number.c_str());
      if (*rate < 0.0 || *rate > 1.0) {
        return Status::InvalidArgument(
            std::string("chaos rates must be in [0, 1]: ") + a);
      }
      continue;
    }
    if (ParseFlagValue(a, "--chaos-delay-ms", &number)) {
      args.chaos.delay_ms = std::atof(number.c_str());
      continue;
    }
    if (ParseFlagValue(a, "--chaos-hang-ms", &number)) {
      args.chaos.hang_ms = std::atof(number.c_str());
      continue;
    }
    if (ParseFlagValue(a, "--chaos-seed", &number)) {
      args.chaos.seed = static_cast<uint64_t>(
          std::strtoull(number.c_str(), nullptr, 10));
      args.chaos_seed_set = true;
      continue;
    }
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      args.help = true;
      continue;
    }
    return Status::InvalidArgument(std::string("unknown argument: ") + a);
  }
  return args;
}

int Serve(const Args& args) {
  // Before any thread starts, so SIGINT/SIGTERM reach only the sigwait below.
  BlockTerminationSignals();
  auto text = ReadFileToString(args.catalog_path);
  if (!text.ok()) {
    std::fprintf(stderr, "catalog: %s\n", text.status().ToString().c_str());
    return 1;
  }
  auto specs = ParseCatalogConfig(text.value());
  if (!specs.ok()) {
    std::fprintf(stderr, "catalog: %s\n", specs.status().ToString().c_str());
    return 1;
  }
  const SourceSpecConfig* spec = nullptr;
  if (args.source.empty()) {
    if (specs->size() != 1) {
      std::fprintf(stderr,
                   "catalog defines %zu sources; pick one with --source\n",
                   specs->size());
      return 2;
    }
    spec = &specs->front();
  } else {
    for (const SourceSpecConfig& s : *specs) {
      if (s.name == args.source) spec = &s;
    }
    if (spec == nullptr) {
      std::fprintf(stderr, "catalog has no source '%s'\n",
                   args.source.c_str());
      return 2;
    }
  }
  const size_t slash = args.catalog_path.rfind('/');
  const std::string base_dir =
      slash == std::string::npos ? "." : args.catalog_path.substr(0, slash);
  auto wrapper = LoadSourceWrapper(*spec, base_dir);
  if (!wrapper.ok()) {
    std::fprintf(stderr, "source: %s\n", wrapper.status().ToString().c_str());
    return 1;
  }

  TcpSourceServer::Options options;
  options.host = args.host;
  options.port = args.port;
  options.chaos = args.chaos;
  if (options.chaos.enabled() && !args.chaos_seed_set) {
    options.chaos.seed = GlobalSeed(options.chaos.seed);
  }
  TcpSourceServer server(std::move(wrapper).value(), options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "bind: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("fusionsd: serving source '%s' on %s:%d%s\n",
              spec->name.c_str(), args.host.c_str(), server.port(),
              options.chaos.enabled() ? " (chaos enabled)" : "");
  std::fflush(stdout);
  if (!args.port_file.empty()) {
    // Atomic write: the readiness file is a polled signal, and a fast
    // reader must see the whole port or no file at all — never a torn
    // prefix (the fopen-then-fprintf it replaced created an *empty* file
    // before the port landed).
    const Status wrote = WriteFileAtomic(
        args.port_file, std::to_string(server.port()) + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "port-file: %s\n", wrote.message().c_str());
      return 1;
    }
  }

  WaitForTerminationSignal();
  std::printf("fusionsd: shutting down\n");
  server.Stop();
  return 0;
}

int Run(int argc, char** argv) {
  const auto args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    PrintUsage();
    return 2;
  }
  if (args->help || args->catalog_path.empty()) {
    PrintUsage();
    return args->help ? 0 : 2;
  }
  return Serve(*args);
}

}  // namespace
}  // namespace fusion

int main(int argc, char** argv) { return fusion::Run(argc, argv); }
