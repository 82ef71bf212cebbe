// google-benchmark micro-benchmarks of the SOP core primitives: LSky
// operations, the K-SKY scan, plan compilation, and distance kernels.

#include <benchmark/benchmark.h>

#include <vector>

#include "sop/common/distance.h"
#include "sop/common/random.h"
#include "sop/core/ksky.h"
#include "sop/core/lsky.h"
#include "sop/gen/synthetic.h"
#include "sop/gen/workload_gen.h"
#include "sop/query/plan.h"
#include "sop/stream/stream_buffer.h"

namespace sop {
namespace {

void BM_DistanceEuclidean(benchmark::State& state) {
  const int dims = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> a(static_cast<size_t>(dims)), b(a);
  for (auto& v : a) v = rng.Normal();
  for (auto& v : b) v = rng.Normal();
  const Point pa(0, 0, a), pb(1, 1, b);
  const DistanceFn dist(Metric::kEuclidean);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist(pa, pb));
  }
}
BENCHMARK(BM_DistanceEuclidean)->Arg(2)->Arg(8)->Arg(32);

void BM_LSkyAppendExpire(benchmark::State& state) {
  const int64_t n = state.range(0);
  LSky sky;
  for (auto _ : state) {
    sky.Clear();
    for (int64_t i = n; i > 0; --i) {
      sky.Append({i, i, static_cast<int32_t>(1 + (i % 7))});
    }
    sky.ExpireBefore(n / 2);
    benchmark::DoNotOptimize(sky.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_LSkyAppendExpire)->Arg(64)->Arg(1024);

// One from-scratch K-SKY scan over a full window, for a dense (inlier) and
// a sparse (outlier) evaluation point. The probe takes the middle seq, so
// the scan counts the newer half of the window and examines the older
// half.
void BM_KSkyFromScratch(benchmark::State& state) {
  const int64_t window = state.range(0);
  const bool dense = state.range(1) != 0;
  Workload w(WindowType::kCount);
  w.AddQuery(OutlierQuery(300.0, 30, window, window / 10));
  w.AddQuery(OutlierQuery(900.0, 100, window, window / 10));
  w.AddQuery(OutlierQuery(1500.0, 300, window, window / 10));
  WorkloadPlan plan(w);
  KSky ksky(&plan, w.MakeDistanceFn(0));

  gen::SyntheticOptions options;
  options.seed = 5;
  StreamBuffer buffer(WindowType::kCount);
  Seq s = 0;
  for (const Point& p : gen::GenerateSynthetic(window, options)) {
    Point copy = p;
    copy.seq = s++;
    buffer.Append(std::move(copy));
  }
  // A dense point sits on a cluster center; a sparse one far away.
  Point probe(s / 2, s / 2,
              dense ? std::vector<double>{5000.0, 5000.0}
                    : std::vector<double>{9999.0, 50.0});
  LSky skyband;
  for (auto _ : state) {
    ksky.EvaluatePoint(probe, buffer, buffer.next_seq(), 0,
                       /*from_scratch=*/true, &skyband);
    benchmark::DoNotOptimize(skyband.size());
  }
  state.SetLabel(dense ? "dense" : "sparse");
}
BENCHMARK(BM_KSkyFromScratch)
    ->Args({10000, 1})
    ->Args({10000, 0})
    ->Args({50000, 1})
    ->Args({50000, 0});

void BM_PlanCompile(benchmark::State& state) {
  const size_t queries = static_cast<size_t>(state.range(0));
  gen::WorkloadGenOptions options;
  options.slide_quantum = 500;
  options.slide_lo = 500;
  options.slide_hi = 5000;
  const Workload w = gen::GenerateWorkload(gen::WorkloadCase::kG, queries,
                                           WindowType::kCount, options);
  for (auto _ : state) {
    WorkloadPlan plan(w);
    benchmark::DoNotOptimize(plan.num_layers());
  }
}
BENCHMARK(BM_PlanCompile)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace sop

BENCHMARK_MAIN();
