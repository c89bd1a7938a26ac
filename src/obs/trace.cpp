#include "obs/trace.hpp"

#include <algorithm>
#include <tuple>

namespace redbud::obs {

const char* stage_name(Stage s) {
  switch (s) {
    case Stage::kClientWrite:
      return "client_write";
    case Stage::kClientRead:
      return "client_read";
    case Stage::kClientMeta:
      return "client_meta";
    case Stage::kClientFsync:
      return "client_fsync";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kCheckoutBatch:
      return "checkout_batch";
    case Stage::kRpcWire:
      return "rpc_wire";
    case Stage::kMdsHandle:
      return "mds_handle";
    case Stage::kJournalFsync:
      return "journal_fsync";
    case Stage::kCommitE2e:
      return "commit_e2e";
    case Stage::kFaultEvent:
      return "fault_event";
    case Stage::kFailover:
      return "failover";
  }
  return "unknown";
}

void Tracer::set_lane_count(std::size_t nlanes) {
  extra_lanes_.clear();
  for (std::size_t i = 1; i < nlanes; ++i) {
    auto l = std::make_unique<Lane>();
    l->tag = std::uint64_t(i) << 48;
    extra_lanes_.push_back(std::move(l));
  }
}

void Tracer::record(Stage stage, TraceContext ctx, std::uint64_t parent,
                    Track track, redbud::sim::SimTime start,
                    redbud::sim::SimTime end, std::uint64_t arg0,
                    std::uint64_t arg1) {
  if (!enabled() || !ctx.active()) return;
  if (Lane* l = lane()) {
    l->stage_lat[{track.pid, stage}].record(end - start);
    if (l->spans.size() >= params_.max_spans) {
      ++l->dropped;
      return;
    }
    l->spans.push_back(SpanRecord{ctx.trace, ctx.span, parent, stage, track,
                                  start, end, arg0, arg1});
    return;
  }
  stage_lat_[{track.pid, stage}].record(end - start);
  if (spans_.size() >= params_.max_spans) {
    ++dropped_;
    return;
  }
  spans_.push_back(
      SpanRecord{ctx.trace, ctx.span, parent, stage, track, start, end, arg0,
                 arg1});
}

void Tracer::observe(Stage stage, std::uint32_t shard,
                     redbud::sim::SimTime dur) {
  if (!enabled()) return;
  if (Lane* l = lane()) {
    l->stage_lat[{shard_track(shard), stage}].record(dur);
    return;
  }
  stage_lat_[{shard_track(shard), stage}].record(dur);
}

void Tracer::collapse_lanes() const {
  auto* self = const_cast<Tracer*>(this);
  if (self->extra_lanes_.empty()) return;
  // Drain every lane into the primary log. Per-lane contents are
  // deterministic (each lane is written only by the one partition mapped
  // to it, in that partition's event order), so the concatenation below —
  // lane 0 first, then lanes in index order — is too.
  for (auto& lp : self->extra_lanes_) {
    Lane& l = *lp;
    self->spans_.insert(self->spans_.end(),
                        std::make_move_iterator(l.spans.begin()),
                        std::make_move_iterator(l.spans.end()));
    l.spans.clear();
    for (auto& [key, hist] : l.stage_lat) self->stage_lat_[key].merge(hist);
    l.stage_lat.clear();
    self->dropped_ += l.dropped;
    l.dropped = 0;
    self->next_trace_ = std::max(self->next_trace_, l.next_trace);
    self->next_span_ = std::max(self->next_span_, l.next_span);
  }
  self->extra_lanes_.clear();
  // Span ids are unique across lanes (the lane tag lives in the high
  // bits), so this key is a strict total order and the sorted log does not
  // depend on the order partitions ran in. stable_sort keeps the (already
  // deterministic) concatenation order for any exact duplicates.
  std::stable_sort(self->spans_.begin(), self->spans_.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     return std::tie(a.start, a.trace, a.span, a.stage) <
                            std::tie(b.start, b.trace, b.span, b.stage);
                   });
}

void Tracer::name_track(Track track, std::string process, std::string thread) {
  if (!enabled()) return;
  tracks_[{track.pid, track.tid}] = {std::move(process), std::move(thread)};
}

}  // namespace redbud::obs
