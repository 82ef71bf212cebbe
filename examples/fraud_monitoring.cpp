// Fraud monitoring: the paper's motivating scenario (Sec. 1).
//
//   build/examples/fraud_monitoring
//
// Several analysts watch the same transaction stream, each with their own
// interpretation of "abnormal": different distance thresholds (how unusual
// an amount/velocity pair must be), different majorities (k), and
// different horizons (window/slide). SOP answers all of them with one
// shared pass; this example also shows the workload-spec text format and
// per-analyst reporting.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sop/sop.h"

namespace {

using namespace sop;

// Transactions as 2-D points: (scaled amount, scaled velocity). Most
// customers produce amounts around a few stable profiles; fraud shows up
// as rare (amount, velocity) combinations far from every profile.
class TransactionSource : public StreamSource {
 public:
  TransactionSource(int64_t n, uint64_t seed) : rng_(seed), remaining_(n) {}

  bool Next(Point* out) override {
    if (remaining_-- <= 0) return false;
    out->seq = 0;
    out->time = time_ += rng_.UniformInt(0, 3);
    double amount, velocity;
    if (rng_.Bernoulli(0.015)) {
      // Fraud-like behaviour: uniformly weird.
      amount = rng_.UniformDouble(0, 10000);
      velocity = rng_.UniformDouble(0, 10000);
    } else {
      // One of three spending profiles (groceries, bills, salary-day).
      const int profile = static_cast<int>(rng_.NextBelow(3));
      const double centers[3][2] = {{1200, 800}, {3500, 2000}, {7000, 4500}};
      amount = rng_.Normal(centers[profile][0], 180.0);
      velocity = rng_.Normal(centers[profile][1], 180.0);
    }
    out->values = {amount, velocity};
    return true;
  }

 private:
  Rng rng_;
  int64_t remaining_;
  Timestamp time_ = 0;
};

}  // namespace

int main() {
  // Analyst workload, written in the text format `sop_cli` also accepts.
  const std::string spec = R"(
window_type count
metric euclidean
# analyst A: aggressive short-horizon screening
query 400 8 1500 250
# analyst B: the same radius but a longer memory
query 400 8 6000 1000
# analyst C: conservative, needs strong evidence
query 900 25 3000 500
# analyst D: very long horizon, weekly-report style
query 700 15 12000 2000
)";
  Workload workload;
  std::string error;
  if (!io::ParseWorkloadSpec(spec, &workload, &error)) {
    std::fprintf(stderr, "bad workload: %s\n", error.c_str());
    return 1;
  }
  const char* analysts[] = {"A (short, strict)", "B (long memory)",
                            "C (conservative)", "D (weekly view)"};

  std::unique_ptr<OutlierDetector> detector =
      CreateDetector("sop", workload);
  TransactionSource source(20000, /*seed=*/2026);

  // Tally flagged transactions per analyst; remember each transaction's
  // first flagger.
  std::vector<uint64_t> flags(workload.num_queries(), 0);
  std::map<Seq, size_t> first_flagger;
  const RunMetrics metrics = ExecutionEngine().Run(
      workload, &source, detector.get(), [&](const QueryResult& result) {
        flags[result.query_index] += result.outliers.size();
        for (Seq s : result.outliers) {
          first_flagger.emplace(s, result.query_index);
        }
      });

  std::printf("Processed %lld transactions in %lld window slides\n",
              static_cast<long long>(metrics.total_points),
              static_cast<long long>(metrics.num_batches));
  std::printf("%-20s %16s\n", "analyst", "flag events");
  for (size_t i = 0; i < workload.num_queries(); ++i) {
    std::printf("%-20s %16llu\n", analysts[i],
                static_cast<unsigned long long>(flags[i]));
  }
  std::printf("%zu distinct transactions were flagged at least once\n",
              first_flagger.size());
  std::printf("shared-detector cost: %.2f ms per slide, peak evidence %.2f MB\n",
              metrics.avg_cpu_ms_per_window,
              static_cast<double>(metrics.peak_memory_bytes) / 1048576.0);
  return 0;
}
