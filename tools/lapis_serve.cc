// lapis-serve: the footprint-database query daemon.
//
// Loads a saved study artifact (or generates a study in-process), publishes
// it as snapshot generation 1, and serves importance / profile-completeness
// / top-K queries over a Unix or loopback-TCP socket until SIGINT/SIGTERM.
//
// Examples:
//   lapis_study --apps=3000 --save=study.bin
//   lapis_serve --artifact=study.bin --socket=/run/lapis.sock
//   lapis_serve --apps=500 --installs=10000 --port=7419
//
// Operators can hot-swap the database without restarting: save a new
// artifact and send SIGHUP — the daemon reloads --artifact and publishes
// it as the next generation while in-flight queries keep reading the old
// one (they finish on the snapshot they pinned; no torn reads).

#include <csignal>
#include <cstdio>
#include <thread>

#include "src/cache/content_hash.h"
#include "src/corpus/study_runner.h"
#include "src/serve/generation.h"
#include "src/serve/server.h"
#include "src/serve/snapshot.h"
#include "src/util/flags.h"
#include "src/util/strings.h"

using namespace lapis;

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_reload = 0;

void HandleStop(int) { g_stop = 1; }
void HandleReload(int) { g_reload = 1; }

int PublishSnapshot(serve::GenerationStore& store,
                    std::shared_ptr<const serve::Snapshot> snapshot) {
  uint64_t generation = store.Publish(snapshot);
  std::printf("lapis_serve: generation %llu published (%zu packages, "
              "%s installations, content hash %016llx, source %s)\n",
              static_cast<unsigned long long>(generation),
              snapshot->dataset().package_count(),
              FormatWithCommas(snapshot->dataset().total_installations())
                  .c_str(),
              static_cast<unsigned long long>(snapshot->content_hash()),
              snapshot->source().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags(
      "lapis-serve: serve footprint-database queries over a socket");
  flags.AddString("artifact", "",
                  "saved study artifact to serve (lapis_study --save=...); "
                  "empty = generate a study in-process");
  flags.AddInt("apps", 3000, "app packages when generating in-process");
  flags.AddInt("installs", 100000,
               "installations when generating in-process");
  flags.AddInt("seed", 20160418, "corpus seed when generating in-process");
  flags.AddInt("jobs", 0, "study pipeline worker threads when generating");
  flags.AddString("socket", "",
                  "Unix socket path to listen on (preferred transport)");
  flags.AddString("host", "127.0.0.1", "TCP bind address");
  flags.AddInt("port", 0,
               "TCP port to listen on when --socket is empty (0 = "
               "ephemeral, printed at startup)");
  flags.AddInt("workers", 0,
               "connection worker threads (0 = all cores); at most this "
               "many connections are served concurrently");
  flags.AddInt("max-connections", 0,
               "overload shedding: connections accepted past this cap get "
               "one retryable busy frame and are closed (0 = uncapped)");
  flags.AddInt("max-inflight", 0,
               "overload shedding: frames arriving while this many are "
               "executing are answered busy (0 = uncapped)");
  flags.AddBool("version", false,
                "print protocol/schema versions and exit");
  auto status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.Usage().c_str(), stdout);
    return 0;
  }
  if (flags.GetBool("version")) {
    std::printf("lapis_serve protocol v%u, study artifact schema v%u, "
                "cache schema v%u\n",
                serve::kProtocolVersion, corpus::kStudyArtifactVersion,
                cache::kCacheSchemaVersion);
    return 0;
  }
  Status range = flags.CheckIntRange({"apps", "installs", "jobs", "workers",
                                      "max-connections", "max-inflight"},
                                     0);
  if (range.ok()) {
    range = flags.CheckIntRange({"port"}, 0, 65535);
  }
  if (!range.ok()) {
    std::fprintf(stderr, "lapis_serve: %s\n", range.message().c_str());
    return 2;
  }

  const std::string& artifact = flags.GetString("artifact");
  std::shared_ptr<const serve::Snapshot> snapshot;
  if (!artifact.empty()) {
    auto loaded = serve::Snapshot::FromFile(artifact);
    if (!loaded.ok()) {
      std::fprintf(stderr, "lapis_serve: load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    snapshot = loaded.take();
  } else {
    corpus::StudyOptions options;
    options.distro.app_package_count =
        static_cast<size_t>(flags.GetInt("apps"));
    options.distro.installation_count =
        static_cast<uint64_t>(flags.GetInt("installs"));
    options.distro.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    options.jobs = static_cast<size_t>(flags.GetInt("jobs"));
    std::printf("lapis_serve: no --artifact, generating a study "
                "(%lld apps, %lld installs)...\n",
                static_cast<long long>(flags.GetInt("apps")),
                static_cast<long long>(flags.GetInt("installs")));
    std::fflush(stdout);
    auto study = corpus::RunStudy(options);
    if (!study.ok()) {
      std::fprintf(stderr, "lapis_serve: study failed: %s\n",
                   study.status().ToString().c_str());
      return 1;
    }
    auto built = serve::Snapshot::FromStudy(study.value(), "inline-study");
    if (!built.ok()) {
      std::fprintf(stderr, "lapis_serve: snapshot build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    snapshot = built.take();
  }

  serve::GenerationStore store;
  PublishSnapshot(store, snapshot);

  serve::ServerOptions options;
  options.unix_socket_path = flags.GetString("socket");
  options.tcp_host = flags.GetString("host");
  options.tcp_port = static_cast<uint16_t>(flags.GetInt("port"));
  options.workers = static_cast<size_t>(flags.GetInt("workers"));
  options.max_connections =
      static_cast<size_t>(flags.GetInt("max-connections"));
  options.max_inflight_frames =
      static_cast<size_t>(flags.GetInt("max-inflight"));
  auto server = serve::Server::Start(options, &store);
  if (!server.ok()) {
    std::fprintf(stderr, "lapis_serve: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::printf("lapis_serve: listening on %s (%zu workers)\n",
              server.value()->endpoint().c_str(),
              server.value()->workers());
  std::fflush(stdout);

  std::signal(SIGINT, HandleStop);
  std::signal(SIGTERM, HandleStop);
  std::signal(SIGHUP, HandleReload);
  while (g_stop == 0) {
    if (g_reload != 0) {
      g_reload = 0;
      if (artifact.empty()) {
        std::fprintf(stderr,
                     "lapis_serve: SIGHUP ignored (no --artifact to "
                     "reload)\n");
      } else {
        // PublishFromFile keeps the old generation live and counts the
        // failure (served in `info` as reload_failures) on any load error.
        auto reloaded = store.PublishFromFile(artifact);
        if (!reloaded.ok()) {
          std::fprintf(stderr,
                       "lapis_serve: reload failed, keeping current "
                       "generation (%llu rejected reloads so far): %s\n",
                       static_cast<unsigned long long>(
                           store.reload_failures()),
                       reloaded.status().ToString().c_str());
        } else {
          std::printf(
              "lapis_serve: generation %llu published (reloaded %s)\n",
              static_cast<unsigned long long>(reloaded.value()),
              artifact.c_str());
          std::fflush(stdout);
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.value()->Stop();
  auto stats = server.value()->stats();
  std::printf("lapis_serve: shut down after %llu connections, %llu frames, "
              "%llu requests, %llu protocol errors, %llu connections shed, "
              "%llu frames shed, %llu reload failures\n",
              static_cast<unsigned long long>(stats.connections_accepted),
              static_cast<unsigned long long>(stats.frames_served),
              static_cast<unsigned long long>(stats.requests_served),
              static_cast<unsigned long long>(stats.protocol_errors),
              static_cast<unsigned long long>(stats.connections_shed),
              static_cast<unsigned long long>(stats.frames_shed),
              static_cast<unsigned long long>(stats.reload_failures));
  return 0;
}
