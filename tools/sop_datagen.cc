// sop_datagen: materialize benchmark datasets and workload specs to disk,
// or stream points at a controlled rate for serving-plane load tests.
//
// Usage:
//   sop_datagen --kind synthetic|stt --n N --out points.csv [--seed S]
//               [--dims D] [--outlier-rate F] [--hotspot FRAC]
//   sop_datagen --kind synthetic|stt --n N --out - [--rate P] [--batch B]
//   sop_datagen --kind synthetic|stt --n N --connect HOST:PORT
//               [--rate P] [--batch B]
//   sop_datagen --kind workload --case A..G --queries Q --out spec.txt
//               [--seed S] [--window-type count|time]
//
// Streaming modes: `--out -` writes CSV to stdout in --batch sized chunks;
// `--connect` speaks the sop wire protocol (net/client.h) and pushes each
// chunk as one ingest batch, deriving boundaries from the server's window
// type (cumulative point count, or point time; a time-window chunk runs on
// through the points that share its last time). The stream is shared, so
// `--connect` goes on from the server's position: count boundaries from
// its count, and time-window points shifted to start at its last
// boundary. `--rate P` paces either mode to P points/second against
// absolute deadlines, so jitter does not accumulate; 0 (default) streams
// at full speed.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flags.h"
#include "sop/gen/stt.h"
#include "sop/gen/synthetic.h"
#include "sop/gen/workload_gen.h"
#include "sop/io/csv.h"
#include "sop/io/workload_parser.h"
#include "sop/net/client.h"

namespace {

// Paces a stream to `rate` points/sec against absolute deadlines.
class Throttle {
 public:
  explicit Throttle(double rate)
      : rate_(rate), start_(std::chrono::steady_clock::now()) {}

  // Blocks until `emitted` points are allowed to have left.
  void Wait(int64_t emitted) const {
    if (rate_ <= 0.0) return;
    const auto deadline =
        start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                     std::chrono::duration<double>(emitted / rate_));
    std::this_thread::sleep_until(deadline);
  }

 private:
  double rate_;
  std::chrono::steady_clock::time_point start_;
};

bool SplitHostPort(const std::string& spec, std::string* host, int* port) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return false;
  }
  *host = spec.substr(0, colon);
  *port = std::atoi(spec.c_str() + colon + 1);
  return *port > 0 && *port < 65536;
}

// Streams `points` to stdout as CSV in `batch` sized chunks under `throttle`.
int StreamToStdout(const std::vector<sop::Point>& points, size_t batch,
                   const Throttle& throttle) {
  int64_t emitted = 0;
  for (size_t start = 0; start < points.size(); start += batch) {
    const size_t end = std::min(points.size(), start + batch);
    const std::vector<sop::Point> chunk(points.begin() + start,
                                        points.begin() + end);
    const std::string csv = sop::io::FormatPointsCsv(chunk);
    std::fwrite(csv.data(), 1, csv.size(), stdout);
    std::fflush(stdout);
    emitted += static_cast<int64_t>(chunk.size());
    throttle.Wait(emitted);
  }
  std::fprintf(stderr, "streamed %lld points to stdout\n",
               static_cast<long long>(emitted));
  return 0;
}

// Streams `points` to a sop server as ingest batches under `throttle`.
int StreamToServer(std::vector<sop::Point> points,
                   const std::string& host, int port, size_t batch,
                   const Throttle& throttle) {
  using namespace sop;
  net::SopClient client;
  std::string error;
  if (!client.Connect(host, port, &error)) {
    std::fprintf(stderr, "connect error: %s\n", error.c_str());
    return 1;
  }
  const bool count_windows =
      client.server_info().window_type ==
      static_cast<uint32_t>(WindowType::kCount);
  // The stream is shared: continue from wherever the server already is.
  const int64_t base = client.server_info().last_boundary == INT64_MIN
                           ? 0
                           : client.server_info().last_boundary;
  if (!count_windows && !points.empty() && points.front().time < base) {
    // A time-window server refuses a point below its last boundary.
    const Timestamp shift = base - points.front().time;
    for (Point& p : points) p.time += shift;
  }
  int64_t emitted = 0;
  int64_t boundary = base;
  uint64_t batches = 0;
  for (size_t start = 0, end = 0; start < points.size(); start = end) {
    end = std::min(points.size(), start + batch);
    // A time-window chunk takes every point at its last time: the next
    // chunk's points must not fall below this chunk's boundary.
    while (!count_windows && end < points.size() &&
           points[end].time == points[end - 1].time) {
      ++end;
    }
    const std::vector<Point> chunk(points.begin() + start,
                                   points.begin() + end);
    emitted += static_cast<int64_t>(chunk.size());
    // Count windows key on cumulative arrival count; time windows on point
    // time (strictly advanced past a shared stream's earlier boundary).
    boundary = count_windows
                   ? base + emitted
                   : std::max(boundary + 1, chunk.back().time + 1);
    net::IngestAckMsg ack;
    if (!client.Ingest(boundary, chunk, &ack, &error)) {
      std::fprintf(stderr, "ingest error: %s\n", error.c_str());
      return 1;
    }
    if (ack.accepted != chunk.size()) {
      for (const net::ErrorMsg& e : client.TakeErrors()) {
        std::fprintf(stderr, "server: %s\n", e.message.c_str());
      }
      return 1;
    }
    ++batches;
    throttle.Wait(emitted);
  }
  std::fprintf(stderr, "streamed %lld points in %llu batches to %s:%d\n",
               static_cast<long long>(emitted),
               static_cast<unsigned long long>(batches), host.c_str(), port);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sop;

  std::string kind;
  std::string out_path;
  std::string connect_spec;
  std::string wcase_name = "G";
  std::string window_type_name = "count";
  int64_t n = 0;
  size_t queries = 100;
  uint64_t seed = 42;
  int dims = 2;
  double outlier_rate = 0.03;
  double hotspot_frac = 0.0;
  double rate = 0.0;
  size_t batch = 128;

  cli::FlagSet flags(
      "Materialize benchmark datasets (--kind synthetic|stt) and workload\n"
      "specs (--kind workload) to disk, or stream points at a controlled\n"
      "rate: --out - writes batched CSV to stdout, --connect speaks the sop\n"
      "wire protocol and pushes each chunk as one ingest batch.");
  flags.Str("--kind", &kind, "synthetic|stt|workload", "what to generate");
  flags.I64("--n", &n, "N", "number of points to generate", 1);
  flags.Str("--out", &out_path, "PATH",
            "output file ('-' streams CSV to stdout)");
  flags.Str("--connect", &connect_spec, "HOST:PORT",
            "stream to a sop_server instead of writing a file");
  flags.F64("--rate", &rate, "POINTS_PER_SEC",
            "pace streaming output (0 = full speed)", 0.0);
  flags.Size("--batch", &batch, "B", "points per streamed chunk", 1);
  flags.U64("--seed", &seed, "S", "generator seed");
  flags.Int("--dims", &dims, "D", "synthetic point dimensionality", 1);
  flags.F64("--outlier-rate", &outlier_rate, "F",
            "synthetic/STT outlier fraction", 0.0);
  flags.F64("--hotspot", &hotspot_frac, "FRAC",
            "synthetic: skew this fraction of inliers into one cluster "
            "(spatially imbalanced streams for scale-out experiments)",
            0.0);
  flags.Str("--case", &wcase_name, "A..G",
            "workload parameter case (paper Sec. 7)");
  flags.Size("--queries", &queries, "Q", "workload query count", 1);
  flags.Str("--window-type", &window_type_name, "count|time",
            "workload window unit");
  int exit_code = 0;
  if (!flags.Parse(argc, argv, &exit_code)) return exit_code;
  if (out_path.empty() && connect_spec.empty()) {
    flags.UsageError("--out or --connect is required");
    return 2;
  }
  if (hotspot_frac < 0.0 || hotspot_frac > 1.0) {
    flags.UsageError("--hotspot must be in [0, 1]");
    return 2;
  }

  std::string error;
  if (kind == "synthetic" || kind == "stt") {
    if (n <= 0) {
      std::fprintf(stderr, "--n must be positive\n");
      return 2;
    }
    std::vector<Point> points;
    if (kind == "synthetic") {
      gen::SyntheticOptions options;
      options.seed = seed;
      options.dimensions = dims;
      options.outlier_rate = outlier_rate;
      options.hotspot_frac = hotspot_frac;
      points = gen::GenerateSynthetic(n, options);
    } else {
      gen::SttOptions options;
      options.seed = seed;
      options.anomaly_rate = outlier_rate;
      points = gen::GenerateStt(n, options);
    }
    const Throttle throttle(rate);
    if (!connect_spec.empty()) {
      std::string host;
      int port = 0;
      if (!SplitHostPort(connect_spec, &host, &port)) {
        std::fprintf(stderr, "--connect expects HOST:PORT\n");
        return 2;
      }
      return StreamToServer(std::move(points), host, port, batch, throttle);
    }
    if (out_path == "-") {
      return StreamToStdout(points, batch, throttle);
    }
    if (!io::SavePointsCsv(out_path, points, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu %s points to %s\n", points.size(),
                 kind.c_str(), out_path.c_str());
    return 0;
  }

  if (kind == "workload") {
    gen::WorkloadCase wcase;
    if (!gen::ParseWorkloadCase(wcase_name, &wcase)) {
      std::fprintf(stderr, "bad --case %s (expect A..G)\n",
                   wcase_name.c_str());
      return 2;
    }
    const WindowType type =
        window_type_name == "time" ? WindowType::kTime : WindowType::kCount;
    gen::WorkloadGenOptions options;
    options.seed = seed;
    const Workload workload =
        gen::GenerateWorkload(wcase, queries, type, options);
    FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    const std::string spec = io::FormatWorkloadSpec(workload);
    std::fwrite(spec.data(), 1, spec.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %zu case-%s queries to %s\n", queries,
                 wcase_name.c_str(), out_path.c_str());
    return 0;
  }

  flags.UsageError("unknown --kind '" + kind + "' (expect synthetic|stt|"
                   "workload)");
  return 2;
}
