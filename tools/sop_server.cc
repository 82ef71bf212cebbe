// sop_server: serve shared outlier detection over TCP.
//
// Usage:
//   sop_server [--host H] [--port P] [--detector NAME]
//              [--window-type count|time] [--metric euclidean|manhattan]
//              [--history-window N] [--send-queue N]
//              [--overload block|drop-oldest] [--ingest-queue N]
//              [--checkpoint PATH] [--checkpoint-every N]
//              [--checkpoint-generations N]
//              [--idle-timeout MS]
//              [--replicate-to HOST:PORT | --standby [--promote-on-loss]]
//              [--metrics] [--metrics-out FILE]
//              [--kernel scalar|avx2|auto]
//              [--fault-rate SITE=RATE[,...]] [--fault-seed S]
//              [--fault-max N]
//
// Hosts one shared SopSession behind the sop wire protocol (DESIGN.md
// Sec. 13): clients ingest point batches, subscribe/unsubscribe outlier
// queries live, and receive per-query emissions. Runs until SIGINT or
// SIGTERM, then shuts down cleanly: stops accepting, drains the detection
// loop and every send queue, flushes replication, writes a final
// checkpoint when --checkpoint is set (a restarted server resumes from
// it), and exits 0. Prints the bound port on stdout — `--port 0` picks an
// ephemeral one, which scripts capture from that line.
//
// High availability (DESIGN.md Sec. 16): run a primary with
// `--replicate-to HOST:PORT` pointing at a second server started with
// `--standby --promote-on-loss` and the same session flags. The primary
// streams its state to the standby after every batch; when the primary
// dies, the standby promotes itself and serves from the last replicated
// boundary — reconnecting clients (sop_client --reconnect) resume there
// exactly once.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "sop/common/fault.h"
#include "sop/detector/factory.h"
#include "sop/net/server.h"
#include "sop/obs/export.h"
#include "sop/obs/metrics.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace sop;

  net::ServerOptions options;
  bool want_metrics = false;
  std::string metrics_out;
  std::vector<std::string> fault_specs;
  uint64_t fault_seed = 1;
  int64_t fault_max = -1;

  cli::FlagSet flags(
      "Serve shared outlier detection over TCP (DESIGN.md Sec. 13): clients\n"
      "ingest point batches, subscribe/unsubscribe queries live, and receive\n"
      "per-query emissions. Runs until SIGINT/SIGTERM; prints the bound port\n"
      "on stdout (--port 0 picks an ephemeral one).");
  flags.Str("--host", &options.host, "H", "bind address");
  flags.Int("--port", &options.port, "P", "bind port (0 = ephemeral)", 0);
  flags.Flag("--detector", "NAME", "detector hosting the shared session",
             [&options](const std::string& v, std::string* error) {
               if (!IsKnownDetector(v)) {
                 *error = UnknownDetectorMessage(v);
                 return false;
               }
               options.detector = v;
               return true;
             });
  flags.Flag("--window-type", "count|time", "window unit for all queries",
             [&options](const std::string& v, std::string* error) {
               if (v == "count") {
                 options.window_type = WindowType::kCount;
               } else if (v == "time") {
                 options.window_type = WindowType::kTime;
               } else {
                 *error = "expect count|time";
                 return false;
               }
               return true;
             });
  flags.Flag("--metric", "euclidean|manhattan", "distance metric",
             [&options](const std::string& v, std::string* error) {
               if (!ParseMetric(v, &options.metric)) {
                 *error = "expect euclidean|manhattan";
                 return false;
               }
               return true;
             });
  flags.I64("--history-window", &options.history_window, "N",
            "history retained for late subscribers", 0);
  flags.Size("--send-queue", &options.max_send_queue, "N",
             "per-connection emission queue cap");
  flags.Flag("--overload", "block|drop-oldest",
             "full send-queue policy (backpressure, or shed emissions)",
             [&options](const std::string& v, std::string* error) {
               if (v == "block") {
                 options.send_policy = OverloadPolicy::kBlock;
               } else if (v == "drop-oldest") {
                 options.send_policy = OverloadPolicy::kDropOldest;
               } else {
                 *error = "unknown policy";
                 return false;
               }
               return true;
             });
  flags.Size("--ingest-queue", &options.max_ingest_queue, "N",
             "ingest queue cap");
  flags.Str("--checkpoint", &options.checkpoint_path, "PATH",
            "write checkpoints here; a restarted server resumes from it");
  flags.I64("--checkpoint-every", &options.checkpoint_every_batches, "N",
            "checkpoint every N ingested batches", 1);
  flags.Int("--checkpoint-generations", &options.checkpoint_generations, "N",
            "checkpoint generations kept on disk; restore falls back past "
            "corrupt files",
            1);
  flags.Int("--idle-timeout", &options.idle_timeout_ms, "MS",
            "disconnect a connection stalled mid-frame this long "
            "(-1 = never)",
            -1);
  flags.Flag("--replicate-to", "HOST:PORT",
             "primary: ship state to a hot standby after every batch",
             [&options](const std::string& v, std::string* error) {
               const size_t colon = v.rfind(':');
               if (colon == std::string::npos || colon == 0) {
                 *error = "expect HOST:PORT";
                 return false;
               }
               char* end = nullptr;
               const long port = std::strtol(v.c_str() + colon + 1, &end, 10);
               if (end == nullptr || *end != '\0' || port <= 0 ||
                   port > 65535) {
                 *error = "bad port";
                 return false;
               }
               options.replicate_host = v.substr(0, colon);
               options.replicate_port = static_cast<int>(port);
               return true;
             });
  flags.Switch("--standby",
               "serve as a hot standby: apply replication, refuse "
               "ingest/subscribe until promoted",
               [&options] { options.standby = true; });
  flags.Switch("--promote-on-loss",
               "standby: promote to primary when the replication "
               "connection drops",
               [&options] { options.promote_on_loss = true; });
  flags.Bool("--metrics", &want_metrics,
             "enable observability; dump the counter registry on shutdown");
  flags.Str("--metrics-out", &metrics_out, "PATH",
            "enable observability; write the registry snapshot to PATH as "
            "JSON on shutdown");
  flags.StrList("--fault-rate", &fault_specs, "SITE=RATE[,...]",
                "arm the deterministic fault injector (common/fault.h)");
  flags.U64("--fault-seed", &fault_seed, "S", "fault schedule seed");
  flags.I64("--fault-max", &fault_max, "N",
            "cap injected failures per site (-1 = unlimited)", -1);
  cli::AddKernelFlag(&flags);
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;

  FaultInjector injector(fault_seed);
  bool inject = false;
  for (const std::string& spec : fault_specs) {
    if (!cli::ParseFaultRate(spec, &injector)) {
      std::fprintf(stderr, "--fault-rate: bad site=rate spec '%s'\n",
                   spec.c_str());
      return 2;
    }
    inject = true;
  }
  if (inject) {
    if (fault_max >= 0) {
      for (int i = 0; i < kNumFaultSites; ++i) {
        injector.SetMaxFailures(static_cast<FaultSite>(i), fault_max);
      }
    }
    std::fprintf(stderr, "fault injection armed (seed %llu)\n",
                 static_cast<unsigned long long>(fault_seed));
    FaultInjector::Arm(&injector);
  }
  if (want_metrics || !metrics_out.empty()) {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
  }

  net::SopServer server(options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "start error: %s\n", error.c_str());
    return 1;
  }
  // Scripts parse this line to find an ephemeral port.
  std::printf("serving detector '%s' (%s windows) on %s:%d\n",
              options.detector.c_str(),
              options.window_type == WindowType::kCount ? "count" : "time",
              options.host.c_str(), server.port());
  std::fflush(stdout);
  if (options.standby) {
    std::fprintf(stderr, "hot standby%s\n",
                 options.promote_on_loss ? ", promoting on primary loss"
                                         : "");
  } else if (!options.replicate_host.empty()) {
    std::fprintf(stderr, "replicating to %s:%d\n",
                 options.replicate_host.c_str(), options.replicate_port);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    // Signal-driven: nothing to do but wait.
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();

  const net::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "served %llu connections, %llu batches (%llu points), "
               "%llu emissions (%llu shed), %llu protocol errors, "
               "%llu checkpoints\n",
               static_cast<unsigned long long>(stats.connections),
               static_cast<unsigned long long>(stats.ingest_batches),
               static_cast<unsigned long long>(stats.ingest_points),
               static_cast<unsigned long long>(stats.emissions),
               static_cast<unsigned long long>(stats.shed_emissions),
               static_cast<unsigned long long>(stats.protocol_errors),
               static_cast<unsigned long long>(stats.checkpoints));
  std::fprintf(stderr,
               "traffic: %llu frames in (%llu bytes), %llu frames out "
               "(%llu bytes), %llu idle disconnects, %llu points rejected\n",
               static_cast<unsigned long long>(stats.frames_in),
               static_cast<unsigned long long>(stats.bytes_in),
               static_cast<unsigned long long>(stats.frames_out),
               static_cast<unsigned long long>(stats.bytes_out),
               static_cast<unsigned long long>(stats.idle_disconnects),
               static_cast<unsigned long long>(stats.rejected_points));
  std::fprintf(stderr,
               "workload changes: %llu subscribes, %llu unsubscribes, "
               "%llu overlay swaps, %llu rebuilds, %llu points replayed\n",
               static_cast<unsigned long long>(stats.subscribes),
               static_cast<unsigned long long>(stats.unsubscribes),
               static_cast<unsigned long long>(stats.overlay_changes),
               static_cast<unsigned long long>(stats.rebuild_changes),
               static_cast<unsigned long long>(stats.replayed_points));
  if (!options.checkpoint_path.empty()) {
    std::fprintf(stderr,
                 "checkpoints: %llu failures, %llu fallbacks, %s\n",
                 static_cast<unsigned long long>(stats.checkpoint_failures),
                 static_cast<unsigned long long>(stats.checkpoint_fallbacks),
                 stats.resumed ? "resumed from a checkpoint" : "started fresh");
  }
  if (stats.sharded) {
    std::fprintf(stderr, "shard %u of %u, %llu halo points\n",
                 stats.shard_index, stats.num_shards,
                 static_cast<unsigned long long>(stats.halo_points));
  }
  if (options.standby || !options.replicate_host.empty()) {
    std::fprintf(stderr,
                 "ha: role %s, %llu promotions, sent %llu snapshots + "
                 "%llu batches, applied %llu + %llu, %llu resyncs, "
                 "%llu emissions replayed (%llu gaps)\n",
                 net::ServerRoleName(stats.role),
                 static_cast<unsigned long long>(stats.promotions),
                 static_cast<unsigned long long>(stats.repl_snapshots_sent),
                 static_cast<unsigned long long>(stats.repl_batches_sent),
                 static_cast<unsigned long long>(stats.repl_snapshots_applied),
                 static_cast<unsigned long long>(stats.repl_batches_applied),
                 static_cast<unsigned long long>(stats.repl_resyncs),
                 static_cast<unsigned long long>(stats.resume_replayed),
                 static_cast<unsigned long long>(stats.resume_gaps));
  }
  if (want_metrics || !metrics_out.empty()) {
    const obs::Snapshot snap = obs::MetricsRegistry::Global().TakeSnapshot();
    const std::string json = obs::ToJson(snap);
    if (want_metrics) std::fprintf(stderr, "%s\n", json.c_str());
    if (!metrics_out.empty()) {
      std::FILE* f = std::fopen(metrics_out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "--metrics-out: cannot write %s\n",
                     metrics_out.c_str());
        exit_code = 1;
      } else {
        std::fprintf(f, "%s\n", json.c_str());
        std::fclose(f);
      }
    }
  }
  if (inject) FaultInjector::Disarm();
  return exit_code;
}
