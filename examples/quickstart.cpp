// Quickstart: detect distance-based outliers for three differently
// parameterized queries over one stream with a single shared SOP detector.
//
//   build/examples/quickstart
//
// Walks through the whole public API surface — everything an application
// needs comes from the single umbrella header sop/sop.h: build a Workload,
// create the detector through the factory by name, run a stream through
// ExecutionEngine::Run, consume per-query results, and read the run
// metrics.

#include <cstdio>
#include <memory>

#include "sop/sop.h"

int main() {
  using namespace sop;

  // 1. Describe the workload: count-based sliding windows, Euclidean
  //    distance, three analysts with different ideas of "anomalous".
  Workload workload(WindowType::kCount);
  workload.AddQuery(OutlierQuery(/*r=*/300.0, /*k=*/10, /*win=*/2000,
                                 /*slide=*/500));  // strict, short-term
  workload.AddQuery(OutlierQuery(/*r=*/800.0, /*k=*/20, /*win=*/4000,
                                 /*slide=*/1000));  // medium
  workload.AddQuery(OutlierQuery(/*r=*/1500.0, /*k=*/50, /*win=*/8000,
                                 /*slide=*/2000));  // lenient, long-term
  std::printf("Workload:\n");
  for (size_t i = 0; i < workload.num_queries(); ++i) {
    std::printf("  [%zu] %s\n", i, workload.query(i).ToString().c_str());
  }

  // 2. One shared detector answers all three queries in a single pass per
  //    point (the paper's SOP algorithm).
  std::unique_ptr<OutlierDetector> detector =
      CreateDetector("sop", workload);

  // 3. Stream 12,000 synthetic points (Gaussian inliers + uniform
  //    outliers) through the detector and consume emissions as they
  //    happen.
  gen::SyntheticOptions data;
  data.seed = 42;
  gen::SyntheticSource source(12000, data);
  uint64_t emissions = 0;
  const RunMetrics metrics = ExecutionEngine().Run(
      workload, &source, detector.get(), [&](const QueryResult& result) {
        // Print the first few emissions in full, then just count.
        if (++emissions <= 6) {
          std::printf("query %zu @ boundary %lld: %zu outliers",
                      result.query_index,
                      static_cast<long long>(result.boundary),
                      result.outliers.size());
          if (!result.outliers.empty()) {
            std::printf(" (first: point #%lld)",
                        static_cast<long long>(result.outliers.front()));
          }
          std::printf("\n");
        }
      });

  // 4. Run metrics: the paper's CPU and MEM measures.
  std::printf("...\n%llu emissions total\n",
              static_cast<unsigned long long>(emissions));
  std::printf("run: %s\n", metrics.ToString().c_str());
  return 0;
}
