// sop_router: front N sop_server workers as one sharded deployment.
//
// Usage:
//   sop_router --workers HOST:PORT[,HOST:PORT...]
//              [--host H] [--port P] [--detector NAME]
//              [--window-type count|time] [--metric euclidean|manhattan]
//              [--domain LO:HI | --cuts C[,C...]] [--halo auto|WIDTH]
//              [--worker-queue N] [--send-queue N] [--ingest-queue N]
//              [--seq-retention N] [--metrics] [--metrics-out FILE]
//
// The scale-out plane (DESIGN.md Sec. 17): points are spatially sharded
// over the first attribute, each worker sees its region plus a halo of
// width r_max, and per-worker emissions are merged back into one canonical
// stream bit-identical to a single-node run. Clients speak the ordinary
// wire protocol to the router; workers must be sop_server instances
// serving TIME windows with the same detector and metric (the router
// translates count deployments itself), ideally with --checkpoint and
// --checkpoint-every 1 so a restarted worker rejoins exactly-once.
//
// The shard regions come from --cuts (explicit interior cut points, one
// fewer than workers) or --domain LO:HI (split uniformly); outer shards
// extend to +-infinity either way. Runs until SIGINT/SIGTERM; prints the
// bound port on stdout like sop_server does.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "sop/cluster/partition.h"
#include "sop/cluster/router.h"
#include "sop/detector/factory.h"
#include "sop/obs/export.h"
#include "sop/obs/metrics.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

bool ParseEndpoint(const std::string& spec, sop::net::Endpoint* out) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  char* end = nullptr;
  const long port = std::strtol(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port <= 0 || port > 65535) {
    return false;
  }
  out->host = spec.substr(0, colon);
  out->port = static_cast<int>(port);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sop;

  cluster::RouterOptions options;
  bool want_metrics = false;
  std::string metrics_out;
  double domain_lo = 0.0;
  double domain_hi = 0.0;
  bool have_domain = false;
  std::vector<double> cuts;

  cli::FlagSet flags(
      "Front N sop_server workers as one sharded deployment (DESIGN.md\n"
      "Sec. 17): spatial sharding over the first attribute with halo\n"
      "replication, merged back into one emission stream bit-identical to\n"
      "a single-node run. Clients connect to the router with the ordinary\n"
      "wire protocol. Workers must serve TIME windows with the router's\n"
      "detector and metric (count deployments are translated here), and\n"
      "should checkpoint every batch so restarts rejoin exactly-once.\n"
      "Runs until SIGINT/SIGTERM; prints the bound port on stdout.");
  flags.Str("--host", &options.host, "H", "bind address");
  flags.Int("--port", &options.port, "P", "bind port (0 = ephemeral)", 0);
  flags.Flag("--workers", "HOST:PORT[,...]",
             "downstream sop_server workers, in shard order",
             [&options](const std::string& v, std::string* error) {
               for (const std::string& spec : cli::SplitCommas(v)) {
                 net::Endpoint ep;
                 if (!ParseEndpoint(spec, &ep)) {
                   *error = "bad endpoint '" + spec + "'";
                   return false;
                 }
                 options.workers.push_back(ep);
               }
               return true;
             });
  flags.Flag("--detector", "NAME", "detector the workers must serve",
             [&options](const std::string& v, std::string* error) {
               if (!IsKnownDetector(v)) {
                 *error = UnknownDetectorMessage(v);
                 return false;
               }
               options.detector = v;
               return true;
             });
  flags.Flag("--window-type", "count|time",
             "window unit the deployment presents to clients",
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
  flags.Flag("--domain", "LO:HI",
             "first-attribute value range, split uniformly across workers",
             [&domain_lo, &domain_hi, &have_domain](const std::string& v,
                                                    std::string* error) {
               const size_t colon = v.find(':');
               if (colon == std::string::npos) {
                 *error = "expect LO:HI";
                 return false;
               }
               char* end = nullptr;
               domain_lo = std::strtod(v.c_str(), &end);
               if (end != v.c_str() + colon) {
                 *error = "bad LO";
                 return false;
               }
               domain_hi = std::strtod(v.c_str() + colon + 1, &end);
               if (end == nullptr || *end != '\0' || !(domain_hi > domain_lo)) {
                 *error = "expect LO < HI";
                 return false;
               }
               have_domain = true;
               return true;
             });
  flags.Flag("--cuts", "C[,C...]",
             "explicit interior cut points (one fewer than workers; "
             "overrides --domain)",
             [&cuts](const std::string& v, std::string* error) {
               for (const std::string& spec : cli::SplitCommas(v)) {
                 char* end = nullptr;
                 const double c = std::strtod(spec.c_str(), &end);
                 if (end == nullptr || *end != '\0') {
                   *error = "bad cut '" + spec + "'";
                   return false;
                 }
                 cuts.push_back(c);
               }
               return true;
             });
  flags.Flag("--halo", "auto|WIDTH",
             "halo width; auto uses the largest subscribed radius "
             "(frozen at the first routed batch)",
             [&options](const std::string& v, std::string* error) {
               if (v == "auto") {
                 options.halo = -1.0;
                 return true;
               }
               char* end = nullptr;
               const double w = std::strtod(v.c_str(), &end);
               if (end == nullptr || *end != '\0' || !(w >= 0.0)) {
                 *error = "expect auto or a width >= 0";
                 return false;
               }
               options.halo = w;
               return true;
             });
  flags.Size("--worker-queue", &options.max_worker_queue, "N",
             "per-worker job queue cap");
  flags.Size("--send-queue", &options.max_send_queue, "N",
             "per-subscriber send queue cap");
  flags.Size("--ingest-queue", &options.max_ingest_queue, "N",
             "client op queue cap");
  flags.I64("--seq-retention", &options.seq_retention, "N",
            "sequence-map retention in window-key units "
            "(0 = size from the largest subscribed window)",
            0);
  flags.Bool("--metrics", &want_metrics,
             "enable observability; dump the counter registry on shutdown");
  flags.Str("--metrics-out", &metrics_out, "PATH",
            "enable observability; write the registry snapshot to PATH as "
            "JSON on shutdown");
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;

  if (options.workers.empty()) {
    std::fprintf(stderr, "--workers is required\n");
    return 2;
  }
  if (!cuts.empty()) {
    if (cuts.size() + 1 != options.workers.size()) {
      std::fprintf(stderr,
                   "--cuts: %zu cuts describe %zu shards but %zu workers "
                   "are listed\n",
                   cuts.size(), cuts.size() + 1, options.workers.size());
      return 2;
    }
    options.partition.cuts = cuts;
  } else if (options.workers.size() > 1) {
    if (!have_domain) {
      std::fprintf(stderr,
                   "with %zu workers, give the shard regions via "
                   "--domain LO:HI or --cuts\n",
                   options.workers.size());
      return 2;
    }
    options.partition = cluster::PartitionSpec::Uniform(
        domain_lo, domain_hi, static_cast<int>(options.workers.size()));
  }

  if (want_metrics || !metrics_out.empty()) {
    obs::SetEnabled(true);
    obs::MetricsRegistry::Global().Reset();
  }

  cluster::SopRouter router(options);
  std::string error;
  if (!router.Start(&error)) {
    std::fprintf(stderr, "start error: %s\n", error.c_str());
    return 1;
  }
  // Scripts parse this line to find an ephemeral port (same shape as
  // sop_server's).
  std::printf("routing detector '%s' (%s windows, %zu workers) on %s:%d\n",
              options.detector.c_str(),
              options.window_type == WindowType::kCount ? "count" : "time",
              options.workers.size(), options.host.c_str(), router.port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    struct timespec ts = {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  router.Stop();

  const cluster::RouterStats stats = router.stats();
  std::fprintf(
      stderr,
      "routed %llu batches (%llu points -> %llu copies, %llu halo) across "
      "%u workers, merged %llu emissions (%llu halo verdicts dropped), "
      "%llu reconnects, %llu worker failures%s\n",
      static_cast<unsigned long long>(stats.ingest_batches),
      static_cast<unsigned long long>(stats.ingest_points),
      static_cast<unsigned long long>(stats.routed_points),
      static_cast<unsigned long long>(stats.halo_points), stats.workers,
      static_cast<unsigned long long>(stats.merged_emissions),
      static_cast<unsigned long long>(stats.dropped_halo_outliers),
      static_cast<unsigned long long>(stats.worker_reconnects),
      static_cast<unsigned long long>(stats.worker_failures),
      stats.degraded ? " (stream degraded)" : "");
  std::fprintf(stderr,
               "halo width %.6g, %llu/%llu subscribes refused, "
               "%llu unsubscribes, %llu boundaries merged\n",
               stats.halo,
               static_cast<unsigned long long>(stats.refused_subscribes),
               static_cast<unsigned long long>(stats.refused_subscribes +
                                               stats.subscribes),
               static_cast<unsigned long long>(stats.unsubscribes),
               static_cast<unsigned long long>(stats.merged_boundaries));
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
  return exit_code;
}
