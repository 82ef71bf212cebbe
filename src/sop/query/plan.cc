#include "sop/query/plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "sop/common/check.h"

namespace sop {
namespace {

// One evidence demand against the basis: "keep enough skyband evidence to
// answer a query at this layer with this k". Real queries contribute their
// own (layer, k); the elastic basis adds one virtual demand per layer at
// the k envelope, so every covered future query is provisioned the same
// way real ones are.
struct BasisDemand {
  int layer;
  int64_t k;
};

// Bucket-map size cap (see plan.h): a 256 KiB table, reached beyond 8K
// layers.
constexpr size_t kMaxLayerBuckets = size_t{1} << 16;

}  // namespace

int WorkloadPlan::Basis::LayerOfRadius(double r) const {
  // Exact double equality on purpose: a query "reuses a layer" only when
  // its r is bit-identical to a compiled threshold; a nearby-but-different
  // r is a genuinely new layer (the normalized distance would bucket
  // points differently).
  const auto it = std::lower_bound(layer_r.begin(), layer_r.end(), r);
  if (it == layer_r.end() || *it != r) return 0;
  return static_cast<int>(it - layer_r.begin()) + 1;
}

bool WorkloadPlan::Basis::Covers(const OutlierQuery& q) const {
  const int layer = LayerOfRadius(q.r);
  if (layer == 0) return false;                // new r layer: new bucketing
  if (q.k < 1 || q.k > k_max()) return false;  // beyond the k envelope
  if (q.win > win) return false;               // beyond the swift window
  // Def. 6 condition 3: the basis must never have pruned a candidate q
  // still needs. q needs candidates at layers <= `layer` until they are
  // dominated q.k times; the table is non-increasing in the count, so the
  // binding check is at count q.k - 1.
  if (layer > max_layer_for_count[static_cast<size_t>(q.k - 1)]) {
    return false;
  }
  // Safe-For-All: evidence for released inliers is gone, so q must be
  // implied by the staircase: some requirement at layer_i <= layer with
  // k_i >= q.k (then count(<= layer) >= count(<= layer_i) >= k_i >= q.k).
  // Requirements ascend in both layer and k, so the last one at or below
  // `layer` carries the largest k.
  const auto it = std::partition_point(
      safety_requirements.begin(), safety_requirements.end(),
      [layer](const SafetyRequirement& req) { return req.layer <= layer; });
  if (it == safety_requirements.begin()) return false;
  return (it - 1)->k >= q.k;
}

WorkloadPlan::WorkloadPlan(Workload workload, bool elastic)
    : workload_(std::move(workload)) {
  ValidateWorkload();
  const auto& queries = workload_.queries();

  // Layers: ascending unique r values.
  basis_.layer_r.reserve(queries.size());
  for (const OutlierQuery& q : queries) basis_.layer_r.push_back(q.r);
  std::sort(basis_.layer_r.begin(), basis_.layer_r.end());
  basis_.layer_r.erase(
      std::unique(basis_.layer_r.begin(), basis_.layer_r.end()),
      basis_.layer_r.end());
  CompileKeys();

  // Envelopes.
  const int64_t k_env = workload_.MaxK();
  basis_.win = workload_.MaxWindow();

  // Demands: the real queries, plus, when elastic, the full envelope at
  // every layer (the plain (k_env - 1)-skyband of Lemma 1).
  std::vector<BasisDemand> demands;
  demands.reserve(queries.size() + basis_.layer_r.size());
  for (const OutlierQuery& q : queries) {
    demands.push_back({basis_.LayerOfRadius(q.r), q.k});
  }
  if (elastic) {
    for (int m = 1; m <= basis_.num_layers(); ++m) {
      demands.push_back({m, k_env});
    }
  }

  // Demand groups: ascending unique k, with min/max layer per group (for
  // real queries this reproduces the paper's k-groups exactly).
  std::vector<int64_t> demand_k;
  demand_k.reserve(demands.size());
  for (const BasisDemand& d : demands) demand_k.push_back(d.k);
  std::sort(demand_k.begin(), demand_k.end());
  demand_k.erase(std::unique(demand_k.begin(), demand_k.end()),
                 demand_k.end());
  std::vector<int> dmin(demand_k.size(), basis_.num_layers() + 1);
  std::vector<int> dmax(demand_k.size(), 0);
  for (const BasisDemand& d : demands) {
    const auto it = std::lower_bound(demand_k.begin(), demand_k.end(), d.k);
    const size_t g = static_cast<size_t>(it - demand_k.begin());
    dmin[g] = std::min(dmin[g], d.layer);
    dmax[g] = std::max(dmax[g], d.layer);
  }

  // Def. 6 condition 3 table over the demand groups. suffix_max[g] = max
  // max-layer over groups with index >= g; a candidate dominated by
  // `count` points serves group g only when k(g) > count, i.e. groups at
  // index >= UpperBound(count).
  std::vector<int> suffix_max(demand_k.size() + 1, 0);
  for (size_t g = demand_k.size(); g-- > 0;) {
    suffix_max[g] = std::max(suffix_max[g + 1], dmax[g]);
  }
  basis_.max_layer_for_count.resize(static_cast<size_t>(k_env));
  for (int64_t c = 0; c < k_env; ++c) {
    const auto it = std::upper_bound(demand_k.begin(), demand_k.end(), c);
    basis_.max_layer_for_count[static_cast<size_t>(c)] =
        suffix_max[static_cast<size_t>(it - demand_k.begin())];
  }

  // Safe-For-All requirements: demand group g demands k(g) succeeding
  // neighbours within its smallest r (its min layer); monotonicity of prefix
  // counts makes a requirement implied when an earlier layer already
  // demands at least as many entries, so only a strictly increasing
  // staircase remains. (Under the elastic basis this collapses to the
  // single requirement {layer 1, k_env}: the one condition every covered
  // future query can rely on.)
  {
    std::vector<SafetyRequirement> reqs;
    reqs.reserve(demand_k.size());
    for (size_t g = 0; g < demand_k.size(); ++g) {
      reqs.push_back({dmin[g], demand_k[g]});
    }
    std::sort(reqs.begin(), reqs.end(),
              [](const SafetyRequirement& a, const SafetyRequirement& b) {
                return a.layer != b.layer ? a.layer < b.layer : a.k > b.k;
              });
    for (const SafetyRequirement& r : reqs) {
      if (!basis_.safety_requirements.empty() &&
          basis_.safety_requirements.back().k >= r.k) {
        continue;  // implied by a requirement at an earlier layer
      }
      basis_.safety_requirements.push_back(r);
    }
  }

  CompileOverlay();
}

void WorkloadPlan::ValidateWorkload() const {
  const std::string problem = workload_.Validate();
  SOP_CHECK_MSG(problem.empty(), problem.c_str());
  SOP_CHECK_MSG(workload_.num_queries() > 0,
                "WorkloadPlan requires at least one query");
  const auto& queries = workload_.queries();
  for (const OutlierQuery& q : queries) {
    SOP_CHECK_MSG(q.attribute_set == queries.front().attribute_set,
                  "WorkloadPlan requires a single attribute set; use "
                  "MultiAttributeDetector for mixed workloads");
  }
}

void WorkloadPlan::CompileOverlay() {
  const auto& queries = workload_.queries();

  // Groups: ascending unique real k values.
  group_k_.clear();
  group_k_.reserve(queries.size());
  for (const OutlierQuery& q : queries) group_k_.push_back(q.k);
  std::sort(group_k_.begin(), group_k_.end());
  group_k_.erase(std::unique(group_k_.begin(), group_k_.end()),
                 group_k_.end());

  // Per-query coordinates against the fixed basis.
  query_layer_.assign(queries.size(), 0);
  query_group_.assign(queries.size(), 0);
  group_min_layer_.assign(group_k_.size(), num_layers() + 1);
  group_max_layer_.assign(group_k_.size(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    const OutlierQuery& q = queries[i];
    const int layer = basis_.LayerOfRadius(q.r);
    SOP_CHECK_MSG(layer != 0, "query r is not a basis layer");
    const auto group_it =
        std::lower_bound(group_k_.begin(), group_k_.end(), q.k);
    const int group = static_cast<int>(group_it - group_k_.begin());
    query_layer_[i] = layer;
    query_group_[i] = group;
    auto& gmin = group_min_layer_[static_cast<size_t>(group)];
    auto& gmax = group_max_layer_[static_cast<size_t>(group)];
    gmin = std::min(gmin, layer);
    gmax = std::max(gmax, layer);
  }

  emission_order_.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) emission_order_[i] = i;
  std::stable_sort(emission_order_.begin(), emission_order_.end(),
                   [&](size_t a, size_t b) {
                     const OutlierQuery& x = queries[a];
                     const OutlierQuery& y = queries[b];
                     if (x.win != y.win) return x.win > y.win;
                     if (x.k != y.k) return x.k < y.k;
                     return query_layer_[a] < query_layer_[b];
                   });

  slide_gcd_ = workload_.SlideGcd();
}

bool WorkloadPlan::Covers(const Workload& next) const {
  if (next.num_queries() == 0 || !next.Validate().empty()) return false;
  if (next.window_type() != workload_.window_type() ||
      next.metric() != workload_.metric()) {
    return false;
  }
  // The plan is compiled for one attribute set (one distance function); a
  // different set makes the stored skyband distances meaningless.
  const int attrs = workload_.queries().front().attribute_set;
  for (const OutlierQuery& q : next.queries()) {
    if (q.attribute_set != attrs) return false;
  }
  if (next.attribute_sets()[static_cast<size_t>(attrs)] !=
      workload_.attribute_sets()[static_cast<size_t>(attrs)]) {
    return false;
  }
  for (const OutlierQuery& q : next.queries()) {
    if (!basis_.Covers(q)) return false;
  }
  return true;
}

bool WorkloadPlan::ApplyOverlay(Workload next) {
  if (!Covers(next)) return false;
  workload_ = std::move(next);
  CompileOverlay();
  return true;
}

void WorkloadPlan::CompileKeys() {
  // K_m: the largest double whose root is <= r_m (see "Keys" in plan.h).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  layer_key_.clear();
  for (const double r : basis_.layer_r) {
    double s = workload_.metric() == Metric::kEuclidean ? r * r : r;
    while (!(DistanceOfKey(s) <= r)) s = std::nextafter(s, 0.0);
    while (s < kInf && DistanceOfKey(std::nextafter(s, kInf)) <= r) {
      s = std::nextafter(s, kInf);
    }
    layer_key_.push_back(s);
  }

  const std::vector<double>& key = layer_key_;
  bucket_top_ = std::min(std::bit_ceil(4 * key.size()), kMaxLayerBuckets);
  bucket_limit_ = static_cast<double>(bucket_top_);
  bucket_scale_ = std::max(bucket_limit_ / key.back(),
                           std::numeric_limits<double>::denorm_min());
  // The keys ascend and bucket() is non-decreasing, so one merge pass
  // fills bucket_first_[b] = #{i : bucket(K_i) < b}.
  bucket_first_.assign(bucket_top_ + 2, 0);
  size_t i = 0;
  for (size_t b = 0; b < bucket_first_.size(); ++b) {
    while (i < key.size() && BucketOf(key[i]) < b) ++i;
    bucket_first_[b] = static_cast<uint32_t>(i);
  }
}

}  // namespace sop
