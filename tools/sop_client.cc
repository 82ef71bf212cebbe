// sop_client: subscribe outlier queries on a running sop_server and stream
// a point file through it, printing every emission.
//
// Usage:
//   sop_client --port P [--host H] --subscribe R,K,WIN,SLIDE [...]
//              --data points.csv [--max-print N]
//              [--churn-every N] [--reconnect HOST:PORT[,...]]
//              [--resume-state PATH]
//   sop_client --port P [--host H] --ping
//
// The client subscribes every --subscribe query (repeatable; parameters
// match one workload spec line), then slices the CSV stream into ingest
// batches the way ExecutionEngine slices its input, at the multiples of
// the gcd of the subscribed slides: a query emits only at a multiple of
// its slide, so a batch that passed one would skip that emission. Count
// windows send the cumulative point count as the boundary and go on from
// the server's position, so the first batch may be short and the last is
// whatever is left; time windows advance through empty spans. Each
// batch's emissions are printed as they arrive — the server delivers them
// ahead of the batch's ack, so output is in stream order.
//
// --churn-every N exercises the server's incremental workload path: after
// every N ingested batches one subscription (round-robin) is dropped and
// re-registered, and the round-trip latency of the re-subscribe is
// reported at the end. Against a sop server these churns are overlay
// swaps (no history replay) — compare the same run against a server with
// another detector to see the rebuild cost.
//
// --reconnect arms transparent recovery (DESIGN.md Sec. 16): a dead
// connection mid-stream is ridden out by failing over across the listed
// endpoints (e.g. a primary and its hot standby), resuming every
// subscription from its high-water boundary and re-ingesting the unacked
// batch tail — emissions stay exactly-once across the failover.
//
// --resume-state PATH persists per-query high-water marks ("r k win slide
// hwm" lines) across *process* restarts: a rerun subscribes with the saved
// boundary and the server replays only what this client has not yet seen.
//
// --ping probes a server's health instead of streaming: prints its role
// (primary/standby), stream position and queue depths, then exits.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "flags.h"
#include "sop/io/csv.h"
#include "sop/net/client.h"
#include "sop/stream/window.h"

namespace {

// Query parameters as a resume-state key (ids are connection-scoped; the
// parameters are what survives a restart).
using QueryKey = std::tuple<double, int64_t, int64_t, int64_t>;

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

// Resume-state file: one "r k win slide hwm" line per query. A missing
// file is an empty state (first run); malformed tails are ignored.
std::map<QueryKey, int64_t> LoadResumeState(const std::string& path) {
  std::map<QueryKey, int64_t> state;
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return state;
  double r = 0.0;
  long long k = 0, win = 0, slide = 0, hwm = 0;
  while (std::fscanf(f, "%lf %lld %lld %lld %lld", &r, &k, &win, &slide,
                     &hwm) == 5) {
    state[QueryKey(r, k, win, slide)] = hwm;
  }
  std::fclose(f);
  return state;
}

bool SaveResumeState(const std::string& path,
                     const std::map<QueryKey, int64_t>& state) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [key, hwm] : state) {
    if (hwm == sop::net::kNoResume) continue;
    std::fprintf(f, "%.17g %lld %lld %lld %lld\n", std::get<0>(key),
                 static_cast<long long>(std::get<1>(key)),
                 static_cast<long long>(std::get<2>(key)),
                 static_cast<long long>(std::get<3>(key)),
                 static_cast<long long>(hwm));
  }
  return std::fclose(f) == 0;
}

bool ParseQuery(const std::string& spec, sop::OutlierQuery* query) {
  double r = 0.0;
  long long k = 0, win = 0, slide = 0;
  if (std::sscanf(spec.c_str(), "%lf,%lld,%lld,%lld", &r, &k, &win,
                  &slide) != 4) {
    return false;
  }
  query->r = r;
  query->k = k;
  query->win = win;
  query->slide = slide;
  query->attribute_set = 0;
  return true;
}

void PrintEmissions(sop::net::SopClient* client, int64_t max_print,
                    int64_t* printed, uint64_t* total) {
  for (const sop::net::EmissionMsg& e : client->TakeEmissions()) {
    ++*total;
    if (e.outliers.empty() || *printed >= max_print) continue;
    ++*printed;
    std::printf("query %lld @ %lld:%s", static_cast<long long>(e.query_id),
                static_cast<long long>(e.boundary),
                e.degraded ? " (degraded)" : "");
    size_t shown = 0;
    for (const sop::Seq s : e.outliers) {
      if (++shown > 16) {
        std::printf(" ... (%zu total)", e.outliers.size());
        break;
      }
      std::printf(" %lld", static_cast<long long>(s));
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sop;

  std::string host = "127.0.0.1";
  int port = 0;
  std::string data_path;
  std::vector<OutlierQuery> queries;
  int64_t max_print = 20;
  int64_t churn_every = 0;
  bool want_ping = false;
  bool reconnect_armed = false;
  std::vector<net::Endpoint> endpoints;
  std::string resume_state_path;

  cli::FlagSet flags(
      "Subscribe outlier queries on a running sop_server and stream a point\n"
      "file through it, printing every emission. --subscribe is repeatable;\n"
      "its parameters match one workload spec line. --churn-every N drops\n"
      "and re-registers one subscription (round-robin) every N batches and\n"
      "reports the re-subscribe round-trip latency.\n"
      "\n"
      "--reconnect rides out server failures by failing over across the\n"
      "listed endpoints (primary + standby), resuming subscriptions from\n"
      "their high-water boundaries so emissions stay exactly-once.\n"
      "--resume-state persists those boundaries across client restarts.\n"
      "--ping probes a server's health (role, position, queue depths)\n"
      "instead of streaming.");
  flags.Str("--host", &host, "H", "server address");
  flags.Int("--port", &port, "P", "server port (required)", 0);
  flags.Str("--data", &data_path, "points.csv", "stream points CSV");
  flags.Flag("--subscribe", "R,K,WIN,SLIDE",
             "subscribe one outlier query (repeatable)",
             [&queries](const std::string& v, std::string* error) {
               OutlierQuery query;
               if (!ParseQuery(v, &query)) {
                 *error = "expect R,K,WIN,SLIDE";
                 return false;
               }
               queries.push_back(query);
               return true;
             });
  flags.I64("--max-print", &max_print, "N", "emission print cap", 0);
  flags.I64("--churn-every", &churn_every, "N",
            "drop + re-subscribe one query every N batches", 1);
  flags.Flag("--reconnect", "HOST:PORT[,...]",
             "ride out server failures: fail over across these endpoints "
             "and resume exactly-once",
             [&](const std::string& v, std::string* error) {
               for (const std::string& spec : cli::SplitCommas(v)) {
                 net::Endpoint ep;
                 if (!ParseEndpoint(spec, &ep)) {
                   *error = "bad endpoint '" + spec + "' (expect HOST:PORT)";
                   return false;
                 }
                 endpoints.push_back(ep);
               }
               reconnect_armed = true;
               return true;
             });
  flags.Str("--resume-state", &resume_state_path, "PATH",
            "persist per-query high-water marks here; a rerun resumes "
            "from them");
  flags.Bool("--ping", &want_ping,
             "probe the server's health (role, stream position, queue "
             "depths) and exit");
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (want_ping) {
    if (port <= 0) {
      flags.UsageError("--ping requires --port");
      return 2;
    }
    net::SopClient client;
    std::string error;
    if (!client.Connect(host, port, &error)) {
      std::fprintf(stderr, "connect error: %s\n", error.c_str());
      return 1;
    }
    net::PongMsg pong;
    if (!client.Ping(&pong, &error)) {
      std::fprintf(stderr, "ping error: %s\n", error.c_str());
      return 1;
    }
    std::printf("%s:%d is %s\n", host.c_str(), port,
                net::ServerRoleName(static_cast<net::ServerRole>(pong.role)));
    if (pong.last_boundary == net::kNoResume) {
      std::printf("last boundary: none (no batches yet)\n");
    } else {
      std::printf("last boundary: %lld\n",
                  static_cast<long long>(pong.last_boundary));
    }
    std::printf("queues: %llu ingest batches, %llu emission frames; "
                "%llu connections\n",
                static_cast<unsigned long long>(pong.ingest_queue_depth),
                static_cast<unsigned long long>(pong.send_queue_depth),
                static_cast<unsigned long long>(pong.active_connections));
    return 0;
  }
  if (port <= 0 || data_path.empty() || queries.empty()) {
    flags.UsageError("--port, --data and at least one --subscribe are "
                     "required");
    return 2;
  }

  std::vector<Point> points;
  std::string error;
  if (!io::LoadPointsCsv(data_path, &points, &error)) {
    std::fprintf(stderr, "data error: %s\n", error.c_str());
    return 1;
  }
  if (points.empty()) {
    std::fprintf(stderr, "data error: %s yielded no points\n",
                 data_path.c_str());
    return 1;
  }

  net::SopClient client;
  if (!client.Connect(host, port, &error)) {
    std::fprintf(stderr, "connect error: %s\n", error.c_str());
    return 1;
  }
  if (reconnect_armed) {
    net::ReconnectOptions ropt;
    ropt.endpoints = endpoints;
    client.EnableReconnect(std::move(ropt));
  }
  const bool count_windows =
      client.server_info().window_type ==
      static_cast<uint32_t>(WindowType::kCount);
  std::fprintf(stderr, "connected: detector '%s', %s windows\n",
               client.server_info().detector.c_str(),
               count_windows ? "count" : "time");

  std::map<QueryKey, int64_t> resume_state;
  if (!resume_state_path.empty()) {
    resume_state = LoadResumeState(resume_state_path);
  }

  std::vector<int64_t> ids;
  for (const OutlierQuery& query : queries) {
    const QueryKey key(query.r, query.k, query.win, query.slide);
    const auto resume = resume_state.find(key);
    const int64_t resume_from =
        resume == resume_state.end() ? net::kNoResume : resume->second;
    const int64_t id = client.Subscribe(query, resume_from, &error);
    if (id == 0) {
      std::fprintf(stderr, "subscribe error: %s\n", error.c_str());
      return 1;
    }
    ids.push_back(id);
    std::fprintf(stderr, "subscribed query %lld (r=%g k=%lld win=%lld "
                 "slide=%lld)\n",
                 static_cast<long long>(id), query.r,
                 static_cast<long long>(query.k),
                 static_cast<long long>(query.win),
                 static_cast<long long>(query.slide));
    if (resume_from != net::kNoResume) {
      std::fprintf(stderr,
                   "  resumed past boundary %lld: %llu replayed%s\n",
                   static_cast<long long>(resume_from),
                   static_cast<unsigned long long>(client.last_replayed()),
                   client.last_gap() ? " (gap: ring wrapped, next emission "
                                       "flagged degraded)"
                                     : "");
    }
  }

  int64_t printed = 0;
  uint64_t total_emissions = 0;
  uint64_t batches = 0;
  uint64_t churns = 0;
  double churn_us_total = 0.0;
  double churn_us_max = 0.0;

  // Drop one subscription (round-robin) and re-register it, timing the
  // unsubscribe+subscribe round trip — the client-visible cost of one
  // workload change on the server.
  auto churn = [&]() -> bool {
    const size_t j = static_cast<size_t>(churns % ids.size());
    const auto t0 = std::chrono::steady_clock::now();
    if (!client.Unsubscribe(ids[j], &error)) {
      std::fprintf(stderr, "churn unsubscribe error: %s\n", error.c_str());
      return false;
    }
    const int64_t id = client.Subscribe(queries[j], &error);
    if (id == 0) {
      std::fprintf(stderr, "churn resubscribe error: %s\n", error.c_str());
      return false;
    }
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ids[j] = id;
    ++churns;
    churn_us_total += us;
    churn_us_max = std::max(churn_us_max, us);
    return true;
  };

  auto ship = [&](std::vector<Point> chunk, int64_t boundary) -> bool {
    net::IngestAckMsg ack;
    if (!client.Ingest(boundary, chunk, &ack, &error)) {
      std::fprintf(stderr, "ingest error: %s\n", error.c_str());
      return false;
    }
    if (ack.accepted != chunk.size()) {
      for (const net::ErrorMsg& e : client.TakeErrors()) {
        std::fprintf(stderr, "server: %s\n", e.message.c_str());
      }
      return false;
    }
    ++batches;
    PrintEmissions(&client, max_print, &printed, &total_emissions);
    if (churn_every > 0 && batches % static_cast<uint64_t>(churn_every) == 0) {
      return churn();
    }
    return true;
  };

  int64_t span = 0;  // the subscribed slides' gcd
  for (const OutlierQuery& query : queries) span = std::gcd(span, query.slide);
  bool ok = true;
  if (count_windows) {
    // Count windows: boundary = cumulative count, cut at each multiple of
    // the span past the server's stream position (boundaries are global).
    int64_t shipped = client.server_info().last_boundary == INT64_MIN
                          ? 0
                          : client.server_info().last_boundary;
    for (size_t start = 0; ok && start < points.size();) {
      const int64_t next = (shipped / span + 1) * span;
      const size_t end = std::min(
          points.size(), start + static_cast<size_t>(next - shipped));
      shipped += static_cast<int64_t>(end - start);
      ok = ship(std::vector<Point>(points.begin() + start,
                                   points.begin() + end),
                shipped);
      start = end;
    }
  } else {
    // Time windows: cut at multiples of the span, advancing through empty
    // spans, exactly like the engine.
    int64_t boundary = FirstBoundaryAtOrAfter(points.front().time + 1, span);
    std::vector<Point> chunk;
    for (size_t i = 0; ok && i < points.size(); ++i) {
      while (points[i].time >= boundary) {
        ok = ship(std::move(chunk), boundary);
        chunk.clear();
        boundary += span;
        if (!ok) break;
      }
      if (ok) chunk.push_back(points[i]);
    }
    if (ok && !chunk.empty()) ok = ship(std::move(chunk), boundary);
  }
  // Persist high-water marks before retiring the subscriptions (they are
  // per live subscription), keeping a prior mark when this run saw no new
  // emissions for a query.
  if (!resume_state_path.empty()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      const int64_t hwm = client.high_water(ids[i]);
      if (hwm == net::kNoResume) continue;
      const OutlierQuery& q = queries[i];
      resume_state[QueryKey(q.r, q.k, q.win, q.slide)] = hwm;
    }
    if (!SaveResumeState(resume_state_path, resume_state)) {
      std::fprintf(stderr, "resume-state error: cannot write %s\n",
                   resume_state_path.c_str());
      if (ok) return 1;
    }
  }
  if (!ok) return 1;

  for (const int64_t id : ids) {
    if (!client.Unsubscribe(id, &error)) {
      std::fprintf(stderr, "unsubscribe error: %s\n", error.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "streamed %zu points in %llu batches; %llu emissions "
               "(sent %llu bytes, received %llu)\n",
               points.size(), static_cast<unsigned long long>(batches),
               static_cast<unsigned long long>(total_emissions),
               static_cast<unsigned long long>(client.bytes_sent()),
               static_cast<unsigned long long>(client.bytes_received()));
  if (reconnect_armed) {
    std::fprintf(stderr,
                 "survived %llu reconnects (%llu duplicate emissions "
                 "suppressed)\n",
                 static_cast<unsigned long long>(client.reconnects()),
                 static_cast<unsigned long long>(client.dropped_duplicates()));
  }
  if (churns > 0) {
    std::fprintf(stderr,
                 "churned %llu subscriptions: mean %.1f us, max %.1f us "
                 "per unsubscribe+resubscribe\n",
                 static_cast<unsigned long long>(churns),
                 churn_us_total / static_cast<double>(churns), churn_us_max);
  }
  return 0;
}
