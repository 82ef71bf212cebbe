#include "sop/core/session.h"

#include <string>
#include <utility>

#include "sop/common/check.h"
#include "sop/common/frame.h"
#include "sop/obs/trace.h"

namespace sop {

SopSession::SopSession(WindowType window_type, Metric metric,
                       int64_t history_window)
    : metric_(metric),
      history_window_(history_window),
      tail_(window_type) {
  SOP_CHECK_MSG(history_window_ > 0, "history window must be positive");
}

QueryId SopSession::AddQuery(const OutlierQuery& query) {
  SOP_CHECK_MSG(query.attribute_set == 0,
                "SopSession supports the full attribute space only");
  Workload probe(tail_.window_type(), metric_);
  probe.AddQuery(query);
  SOP_CHECK_MSG(probe.Validate().empty(), probe.Validate().c_str());
  const QueryId id = next_id_++;
  registered_.emplace(id, query);
  dirty_ = true;
  return id;
}

bool SopSession::RemoveQuery(QueryId id) {
  if (registered_.erase(id) == 0) return false;
  dirty_ = true;
  return true;
}

std::vector<QueryId> SopSession::RegisteredQueryIds() const {
  std::vector<QueryId> ids;
  ids.reserve(registered_.size());
  for (const auto& [id, query] : registered_) ids.push_back(id);
  return ids;
}

const OutlierQuery* SopSession::FindQuery(QueryId id) const {
  const auto it = registered_.find(id);
  return it == registered_.end() ? nullptr : &it->second;
}

void SopSession::SetDetectorBuilder(DetectorBuilder builder) {
  builder_ = std::move(builder);
  dirty_ = true;
}

Workload SopSession::BuildWorkload(std::vector<QueryId>* ids) const {
  ids->clear();
  ids->reserve(registered_.size());
  Workload workload(tail_.window_type(), metric_);
  for (const auto& [id, query] : registered_) {
    workload.AddQuery(query);
    ids->push_back(id);
  }
  return workload;
}

void SopSession::ApplyWorkloadChange() {
  dirty_ = false;
  if (registered_.empty()) {
    // Dropping the last query needs no evidence at all.
    detector_.reset();
    sop_detector_ = nullptr;
    detector_query_ids_.clear();
    ++change_stats_.overlay_changes;
    SOP_COUNTER_ADD("session/change/overlay", 1);
    return;
  }
  std::vector<QueryId> ids;
  Workload workload = BuildWorkload(&ids);
  if (sop_detector_ != nullptr && sop_detector_->CoversWorkload(workload)) {
    SOP_CHECK(sop_detector_->ApplyWorkload(std::move(workload)));
    detector_query_ids_ = std::move(ids);
    ++change_stats_.overlay_changes;
    SOP_COUNTER_ADD("session/change/overlay", 1);
    return;
  }
  Rebuild();
}

void SopSession::Rebuild() {
  SOP_TRACE("session/rebuild_ms");
  SOP_COUNTER_ADD("session/change/rebuild", 1);
  ++change_stats_.rebuilds;
  detector_.reset();
  sop_detector_ = nullptr;
  detector_query_ids_.clear();
  if (registered_.empty()) return;
  std::vector<QueryId> ids;
  const Workload workload = BuildWorkload(&ids);
  detector_query_ids_ = std::move(ids);
  if (builder_ != nullptr) {
    detector_ = builder_(workload);
  } else {
    SopDetector::Options options;
    options.elastic_basis = true;
    auto sop = std::make_unique<SopDetector>(workload, options);
    sop_detector_ = sop.get();
    detector_ = std::move(sop);
  }
  SOP_CHECK_MSG(detector_ != nullptr, "detector builder returned null");
  // Replay the retained history so freshly added queries see populated
  // windows. Replay emissions are internal. The newest retained batch is
  // the live one that triggered this change: the caller's results come
  // from its own Advance through the new detector.
  const std::deque<HistoryBatch>& history = tail_.batches();
  for (size_t i = 0; i + 1 < history.size(); ++i) {
    const HistoryBatch& batch = history[i];
    SOP_COUNTER_ADD("session/replayed_batches", 1);
    SOP_COUNTER_ADD("session/replayed_points", batch.points.size());
    ++change_stats_.replayed_batches;
    change_stats_.replayed_points += batch.points.size();
    detector_->Advance(batch.points, batch.boundary);
  }
}

std::vector<SessionResult> SopSession::Advance(std::vector<Point> batch,
                                               int64_t boundary) {
  // The tail checks the batch, numbers its points, keeps it and trims what
  // no future replay can need; then any pending workload change is
  // realized. So a rebuild replays exactly the batches kept at the live
  // boundary, and the live batch is advanced once, by the new detector.
  tail_.Push(&batch, boundary, history_window_);
  if (dirty_ || (detector_ == nullptr && !registered_.empty())) {
    ApplyWorkloadChange();
  }

  std::vector<QueryResult> raw;
  if (detector_ != nullptr) {
    raw = detector_->Advance(std::move(batch), boundary);
  }

  SOP_GAUGE_SET("session/history_batches", tail_.batches().size());

  std::vector<SessionResult> results;
  results.reserve(raw.size());
  for (QueryResult& r : raw) {
    SessionResult sr;
    sr.query_id = detector_query_ids_[r.query_index];
    sr.boundary = r.boundary;
    sr.outliers = std::move(r.outliers);
    results.push_back(std::move(sr));
  }
  return results;
}

void SopSession::Advance(std::vector<Point> batch, int64_t boundary,
                         const SessionResultSink& sink) {
  SOP_CHECK_MSG(sink != nullptr, "sink must be callable");
  for (const SessionResult& r : Advance(std::move(batch), boundary)) {
    sink(r);
  }
}

namespace {
// Session state format version. The payload lives inside a common/frame.h
// frame, so truncation/corruption is caught before this version is read.
// v4 holds the guards, the query table and the StreamTail. Only the
// current version is accepted.
constexpr uint32_t kSessionStateVersion = 4;
}  // namespace

std::string SopSession::SaveState() const {
  BinaryWriter w;
  w.WriteU32(kSessionStateVersion);
  w.WriteU32(static_cast<uint32_t>(tail_.window_type()));
  w.WriteU32(static_cast<uint32_t>(metric_));
  w.WriteI64(history_window_);
  w.WriteI64(next_id_);
  w.WriteU64(registered_.size());
  for (const auto& [id, q] : registered_) {
    w.WriteI64(id);
    w.WriteDouble(q.r);
    w.WriteI64(q.k);
    w.WriteI64(q.win);
    w.WriteI64(q.slide);
  }
  tail_.Write(&w);
  return WrapFrame(w.bytes());
}

bool SopSession::LoadState(std::string_view bytes, std::string* error) {
  auto fail = [error](const char* what) {
    if (error != nullptr) *error = std::string("session state: ") + what;
    return false;
  };
  std::string_view payload;
  if (!UnwrapFrame(bytes, &payload, error)) return false;
  BinaryReader r(payload);
  uint32_t version = 0;
  uint32_t window_type = 0;
  uint32_t metric = 0;
  int64_t history_window = 0;
  int64_t next_id = 0;
  if (!r.ReadU32(&version)) return fail("truncated");
  if (version != kSessionStateVersion) return fail("unsupported version");
  if (!r.ReadU32(&window_type) || !r.ReadU32(&metric) ||
      !r.ReadI64(&history_window) || !r.ReadI64(&next_id)) {
    return fail("truncated");
  }
  if (window_type != static_cast<uint32_t>(tail_.window_type()) ||
      metric != static_cast<uint32_t>(metric_) ||
      history_window != history_window_) {
    return fail("saved under a different session configuration");
  }
  uint64_t num_queries = 0;
  if (!r.ReadU64(&num_queries)) return fail("truncated");
  std::map<QueryId, OutlierQuery> restored;
  QueryId prev_id = 0;
  for (uint64_t i = 0; i < num_queries; ++i) {
    int64_t id = 0;
    OutlierQuery q;
    if (!r.ReadI64(&id) || !r.ReadDouble(&q.r) || !r.ReadI64(&q.k) ||
        !r.ReadI64(&q.win) || !r.ReadI64(&q.slide)) {
      return fail("truncated query table");
    }
    if (id <= prev_id || id >= next_id) return fail("bad query id");
    prev_id = id;
    Workload probe(tail_.window_type(), metric_);
    probe.AddQuery(q);
    if (!probe.Validate().empty()) return fail("invalid saved query");
    restored.emplace(id, q);
  }

  StreamTail tail(tail_.window_type());
  const std::string refusal = tail.Read(&r);
  if (!refusal.empty()) return fail(refusal.c_str());
  if (!r.AtEnd()) return fail("trailing bytes");

  registered_ = std::move(restored);
  tail_ = std::move(tail);
  next_id_ = next_id;
  detector_.reset();
  sop_detector_ = nullptr;
  detector_query_ids_.clear();
  dirty_ = true;  // next Advance rebuilds and replays the restored tail
  return true;
}

size_t SopSession::MemoryBytes() const {
  return (detector_ != nullptr ? detector_->MemoryBytes() : 0) +
         tail_.MemoryBytes();
}

}  // namespace sop
