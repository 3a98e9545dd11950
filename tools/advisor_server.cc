// The cleaning-advisor server binary: keeps the suite stack (generated
// datasets, experiment-cell cache, study driver) resident and serves
// analyze requests over a line-delimited JSON protocol on 127.0.0.1.
//
// Usage: advisor_server [--port P]
//
// --port (a decimal in [0, 65535]; 0 binds an ephemeral port) overrides
// FAIRCLEAN_SERVE_PORT. A malformed port or an unknown flag exits 2.
//
// Configuration is environment-first, like every other binary here:
// FAIRCLEAN_SERVE_PORT / FAIRCLEAN_SERVE_QUEUE / FAIRCLEAN_SERVE_DEADLINE_S
// for the serving layer, the usual FAIRCLEAN_SAMPLE / FAIRCLEAN_REPEATS /
// FAIRCLEAN_CACHE_DIR / ... for the resident stack, FAIRCLEAN_FAULTS for
// chaos runs. All knob parsing is strict: a typo'd value aborts startup
// (exit 2) instead of silently serving with a default.
//
// The first stdout line once serving is "listening on port <P>" — scripts
// (the soak test, CI) scrape it to find an ephemeral port. The server exits
// cleanly on a {"op":"shutdown"} request; a SIGKILL needs no cooperation
// because every cache write is atomic and every finished repeat is its own
// slice record, so a restarted server resumes in-flight cells from their
// slices.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "common/fault_injection.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace {

using namespace fairclean;  // NOLINT

// SIGTERM/SIGINT only set a flag: the handler must stay async-signal-safe,
// so the main loop polls it (WaitFor) and performs the graceful stop —
// shedding the queue honestly and flushing the final metrics export.
volatile std::sig_atomic_t g_terminate = 0;

void HandleTerminate(int) { g_terminate = 1; }

int Usage() {
  std::fprintf(stderr, "usage: advisor_server [--port P]\n");
  return 2;
}

int Run(int argc, char** argv) {
  obs::InitLogLevelFromEnv(obs::LogLevel::kInfo);
  obs::InitTraceFromEnv();

  std::optional<uint16_t> port_override;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      Result<uint16_t> port = serve::ParsePort("--port", argv[++i]);
      if (!port.ok()) {
        std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
        return Usage();
      }
      port_override = *port;
    } else {
      return Usage();
    }
  }

  Status faults = FaultInjector::Global().ConfigureFromEnv();
  if (!faults.ok()) {
    std::fprintf(stderr, "%s\n", faults.ToString().c_str());
    return 2;
  }

  Result<serve::ServeOptions> options = serve::ServeOptionsFromEnv();
  if (!options.ok()) {
    std::fprintf(stderr, "bad configuration: %s\n",
                 options.status().ToString().c_str());
    return 2;
  }
  if (port_override.has_value()) options->port = *port_override;

  serve::AdvisorServer server(std::move(*options));
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on port %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  std::signal(SIGTERM, HandleTerminate);
  std::signal(SIGINT, HandleTerminate);
  while (!server.WaitFor(0.2)) {
    if (g_terminate) break;
  }
  server.Shutdown();  // sheds the queue and flushes the metrics export
  serve::ServerStats stats = server.Stats();
  std::printf(
      "served: accepted=%llu ok=%llu shed=%llu failed=%llu "
      "deadline_exceeded=%llu\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.ok),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.deadline_exceeded));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
