#include "sop/common/fault.h"

#include "sop/common/check.h"

namespace sop {

std::atomic<FaultInjector*> FaultInjector::g_armed{nullptr};

const char* FaultSiteName(FaultSite site) {
  switch (site) {
    case FaultSite::kCheckpointWrite:
      return "checkpoint-write";
    case FaultSite::kCheckpointRead:
      return "checkpoint-read";
    case FaultSite::kCheckpointBytes:
      return "checkpoint-bytes";
    case FaultSite::kBatchStall:
      return "batch-stall";
  }
  return "unknown";
}

FaultInjector::FaultInjector(uint64_t seed)
    : corrupt_rng_(seed ^ 0xC0'44'7E'57'C0'44'7E'57ULL) {
  sites_.reserve(kNumFaultSites);
  for (int i = 0; i < kNumFaultSites; ++i) {
    // Decorrelate per-site decision streams from one another.
    sites_.emplace_back(seed + 0x9E3779B97F4A7C15ULL * (i + 1));
  }
}

void FaultInjector::SetRate(FaultSite site, double rate) {
  SOP_CHECK_MSG(rate >= 0.0 && rate <= 1.0, "fault rate must be in [0, 1]");
  std::lock_guard<std::mutex> lock(mu_);
  sites_[static_cast<size_t>(site)].rate = rate;
}

void FaultInjector::SetMaxFailures(FaultSite site, int64_t max_failures) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[static_cast<size_t>(site)].max_failures = max_failures;
}

void FaultInjector::SetStallMillis(int64_t ms) {
  SOP_CHECK_MSG(ms >= 0, "stall millis must be >= 0");
  stall_millis_ = ms;
}

bool FaultInjector::ShouldFail(FaultSite site) {
  std::lock_guard<std::mutex> lock(mu_);
  SiteState& s = sites_[static_cast<size_t>(site)];
  ++s.consulted;
  if (s.rate <= 0.0) return false;
  if (s.max_failures >= 0 && s.injected >= s.max_failures) return false;
  if (s.rng.UniformDouble() >= s.rate) return false;
  ++s.injected;
  return true;
}

void FaultInjector::CorruptBytes(std::string* bytes) {
  if (bytes->empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t bit =
      corrupt_rng_.NextBelow(static_cast<uint64_t>(bytes->size()) * 8);
  (*bytes)[static_cast<size_t>(bit / 8)] ^=
      static_cast<char>(1u << (bit % 8));
}

int64_t FaultInjector::injected(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].injected;
}

int64_t FaultInjector::consulted(FaultSite site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_[static_cast<size_t>(site)].consulted;
}

}  // namespace sop
