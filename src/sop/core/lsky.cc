#include "sop/core/lsky.h"

#include "sop/obs/trace.h"

namespace sop {

size_t LSky::ExpireBefore(int64_t min_key) {
  // Keys are non-increasing from front to back (descending seq), so the
  // expired entries form a suffix.
  size_t removed = 0;
  while (!entries_.empty() && entries_.back().key < min_key) {
    entries_.pop_back();
    ++removed;
  }
  if (removed > 0) SOP_COUNTER_ADD("lsky/evictions", removed);
  return removed;
}

}  // namespace sop
