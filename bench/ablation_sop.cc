// Ablation study of SOP's design choices (DESIGN.md Sec. 8):
//   1. Safe-For-All inlier pruning (Alg. 3 line 2)
//   2. K-SKY early termination (layer-1 saturation, Alg. 1 lines 12-13)
//   3. Def. 6 condition-3 pruning (group-aware skyband membership)
// Each is switched off individually (and all together); results must stay
// identical (asserted), only cost changes.
//
// Two workloads are ablated: case A (varying r, fixed k=30) where points
// become Safe-For-All quickly, and the fully general case G where the
// largest-k group rarely lets a point retire — showing which optimization
// carries which regime.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_data.h"
#include "figure.h"
#include "sop/core/sop_detector.h"
#include "sop/detector/engine.h"

namespace {

using namespace sop;
using namespace sop::bench;

struct Variant {
  const char* name;
  SopDetector::Options options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"full (paper)", {}});
  {
    SopDetector::Options o;
    o.safe_inlier_pruning = false;
    variants.push_back({"no safe-inlier pruning", o});
  }
  {
    SopDetector::Options o;
    o.ksky.early_termination = false;
    variants.push_back({"no early termination", o});
  }
  {
    SopDetector::Options o;
    o.ksky.condition3_pruning = false;
    variants.push_back({"no Def.6 cond-3 pruning", o});
  }
  {
    SopDetector::Options o;
    o.safe_inlier_pruning = false;
    o.ksky.early_termination = false;
    o.ksky.condition3_pruning = false;
    variants.push_back({"all optimizations off", o});
  }
  return variants;
}

// Runs all variants over one workload; returns false on a result mismatch.
bool RunAblation(const char* label, const Workload& workload,
                 int64_t stream_n) {
  std::printf(
      "----------------------------------------------------------------\n");
  std::printf("%s (%zu queries, %lld-point synthetic stream)\n", label,
              workload.num_queries(), static_cast<long long>(stream_n));
  std::printf(
      "----------------------------------------------------------------\n");
  std::printf("%-28s %12s %12s %14s %16s %12s %12s\n", "variant",
              "cpu ms/win", "peak MB", "K-SKY scans", "distances",
              "safe pts", "outliers");
  uint64_t reference_outliers = 0;
  bool first = true;
  for (const Variant& v : Variants()) {
    SopDetector detector(workload, v.options);
    gen::SyntheticOptions source_options;
    source_options.seed = 20160626;
    gen::SyntheticSource source(stream_n, source_options);
    const RunMetrics metrics =
        ExecutionEngine().Run(workload, &source, &detector);
    if (first) {
      reference_outliers = metrics.total_outliers;
      first = false;
    } else if (metrics.total_outliers != reference_outliers) {
      std::printf("ERROR: variant '%s' changed the results!\n", v.name);
      return false;
    }
    std::printf("%-28s %12.3f %12.3f %14lld %16lld %12lld %12llu\n", v.name,
                metrics.avg_cpu_ms_per_window,
                static_cast<double>(metrics.peak_memory_bytes) / 1048576.0,
                static_cast<long long>(detector.stats().ksky_scans),
                static_cast<long long>(detector.stats().distances_computed),
                static_cast<long long>(detector.stats().safe_points_discovered),
                static_cast<unsigned long long>(metrics.total_outliers));
    std::printf(
        "RESULT fig=ablation workload=\"%s\" variant=\"%s\" "
        "metric=cpu_ms_per_window value=%.4f\n",
        label, v.name, metrics.avg_cpu_ms_per_window);
    std::fflush(stdout);
  }
  return true;
}

}  // namespace

int main() {
  const int64_t kStream = FastMode() ? 6000 : 20000;
  const size_t kQueries = FastMode() ? 100 : 1000;

  std::printf(
      "================================================================\n");
  std::printf("Ablation — SOP design choices\n");
  std::printf(
      "================================================================\n");

  gen::WorkloadGenOptions case_a;
  case_a.win_fixed = 10000;
  case_a.slide_fixed = 500;
  case_a.k_fixed = 30;
  const Workload workload_a = gen::GenerateWorkload(
      gen::WorkloadCase::kA, kQueries, WindowType::kCount, case_a);
  if (!RunAblation("case A: varying r, k=30", workload_a, kStream)) return 1;

  gen::WorkloadGenOptions case_g;
  case_g.win_lo = 1000;
  case_g.win_hi = 10000;
  case_g.slide_lo = 500;
  case_g.slide_hi = 5000;
  case_g.slide_quantum = 500;
  const Workload workload_g = gen::GenerateWorkload(
      gen::WorkloadCase::kG, kQueries, WindowType::kCount, case_g);
  if (!RunAblation("case G: all four parameters vary", workload_g, kStream)) {
    return 1;
  }
  return 0;
}
