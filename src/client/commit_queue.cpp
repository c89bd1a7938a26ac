#include "client/commit_queue.hpp"

#include <algorithm>
#include <cassert>

#include "client/commit_slab.hpp"

namespace redbud::client {

using redbud::sim::Done;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;

CommitQueue::CommitQueue(redbud::sim::Simulation& sim)
    : sim_(&sim),
      owned_slab_(std::make_unique<CommitSlab>()),
      slab_(owned_slab_.get()),
      work_(sim),
      space_(sim) {}

CommitQueue::CommitQueue(redbud::sim::Simulation& sim, CommitSlab* slab)
    : sim_(&sim), slab_(slab), work_(sim), space_(sim) {
  assert(slab_ != nullptr);
}

CommitQueue::~CommitQueue() = default;

void CommitQueue::set_obs(obs::Obs* obs, std::uint32_t client_id) {
  obs_ = obs;
  track_ = obs::Track{obs::client_track(client_id), 2};
  const obs::Labels labels{{"client", std::to_string(client_id)}};
  obs->registry.register_value("commit_queue.enqueued", labels, &enqueued_);
  obs->registry.register_value("commit_queue.merged", labels, &merged_);
  obs->registry.register_value("commit_queue.committed", labels, &committed_);
  obs->registry.register_value("commit_queue.dropped", labels, &dropped_);
  obs->registry.register_value("commit_queue.depth", labels, &depth_);
  obs->registry.register_value("commit_queue.oldest_enqueued_us", labels,
                               &oldest_enqueued_us_);
  obs->registry.register_histogram("commit_queue.latency", labels,
                                   &commit_latency_);
}

void CommitQueue::refresh_state() {
  depth_ = order_.size();
  oldest_enqueued_us_ =
      order_.empty()
          ? 0
          : std::uint64_t(queued_.at(order_.front()).enqueued_at.ns() / 1000);
}

void CommitQueue::add(net::FileId file, std::vector<net::Extent> extents,
                      std::vector<storage::ContentToken> block_tokens,
                      std::uint64_t new_size_bytes,
                      std::vector<SimFuture<Done>> data_futures,
                      obs::TraceContext ctx) {
  ++enqueued_;
  auto it = queued_.find(file);
  if (it == queued_.end()) {
    CommitTask task = slab_->acquire();
    task.file = file;
    task.shard = net::shard_of_id(file);
    task.extents = std::move(extents);
    task.block_tokens = std::move(block_tokens);
    task.new_size_bytes = new_size_bytes;
    task.enqueued_at = sim_->now();
    task.data_futures = std::move(data_futures);
    if (ctx.active()) task.traces.push_back({ctx, sim_->now()});
    queued_.emplace(file, std::move(task));
    order_.push_back(file);
  } else {
    // Same-file merge: one commit request per file in the queue.
    ++merged_;
    CommitTask& task = it->second;
    task.extents.insert(task.extents.end(), extents.begin(), extents.end());
    task.block_tokens.insert(task.block_tokens.end(), block_tokens.begin(),
                             block_tokens.end());
    task.new_size_bytes = std::max(task.new_size_bytes, new_size_bytes);
    for (auto& f : data_futures) task.data_futures.push_back(std::move(f));
    // The merged update keeps its own context: its chain shares the
    // task's checkout/RPC spans but retains per-update queue-wait/e2e.
    if (ctx.active()) task.traces.push_back({ctx, sim_->now()});
  }
  refresh_state();
  work_.notify_all();
}

SimFuture<Done> CommitQueue::wait_committed(net::FileId file) {
  SimPromise<Done> p(*sim_);
  auto fut = p.future();
  const bool queued = queued_.count(file) > 0;
  const bool flying = in_flight_files_.count(file) > 0;
  if (!queued && !flying) {
    p.set_value(Done{});
    return fut;
  }
  if (queued) {
    queued_[file].waiters.push_back(std::move(p));
  } else {
    in_flight_waiters_[file].push_back(std::move(p));
  }
  return fut;
}

void CommitQueue::drop(net::FileId file) {
  auto it = queued_.find(file);
  if (it == queued_.end()) return;
  ++dropped_;
  for (auto& w : it->second.waiters) w.set_value(Done{});
  slab_->recycle(std::move(it->second));
  queued_.erase(it);
  order_.erase(std::remove(order_.begin(), order_.end(), file), order_.end());
  refresh_state();
  space_.notify_all();
}

bool CommitQueue::any_ready() const {
  for (const auto& file : order_) {
    if (queued_.at(file).data_complete()) return true;
  }
  return false;
}

std::vector<CommitTask> CommitQueue::checkout(std::size_t max) {
  std::vector<CommitTask> out;
  // Bound the scan: data writes complete roughly in FIFO order, so ready
  // entries cluster at the front; a deep scan over a long unready tail
  // would make daemon polling quadratic in the queue length.
  constexpr std::size_t kScanLimit = 128;
  std::size_t scanned = 0;
  // The first ready task pins the batch's target shard.
  std::uint32_t batch_shard = 0;
  for (auto it = order_.begin();
       it != order_.end() && out.size() < max && scanned < kScanLimit;
       ++scanned) {
    auto qit = queued_.find(*it);
    assert(qit != queued_.end());
    if (qit->second.data_complete() &&
        (out.empty() || qit->second.shard == batch_shard)) {
      if (out.empty()) batch_shard = qit->second.shard;
      // Queue-wait stage ends here for every update riding this task.
      if (obs_ != nullptr) {
        for (const obs::TraceLink& link : qit->second.traces) {
          obs_->tracer.record(obs::Stage::kQueueWait,
                              obs_->tracer.child(link.ctx), link.ctx.span,
                              track_, link.enqueued_at, sim_->now(),
                              qit->second.file);
        }
      }
      out.push_back(std::move(qit->second));
      queued_.erase(qit);
      it = order_.erase(it);
      ++in_flight_files_[out.back().file];
      ++in_flight_count_;
    } else {
      ++it;
    }
  }
  refresh_state();
  if (!out.empty()) space_.notify_all();
  return out;
}

std::optional<std::uint32_t> CommitQueue::first_ready_shard() const {
  constexpr std::size_t kScanLimit = 128;
  std::size_t scanned = 0;
  for (auto it = order_.begin(); it != order_.end() && scanned < kScanLimit;
       ++it, ++scanned) {
    const CommitTask& task = queued_.at(*it);
    if (task.data_complete()) return task.shard;
  }
  return std::nullopt;
}

void CommitQueue::ack(CommitTask& task, std::uint64_t batch_span) {
  ++committed_;
  commit_latency_.record(sim_->now() - task.enqueued_at);
  // Commit end-to-end: enqueue -> RPC acknowledged, one span per traced
  // update. arg1 links to the checkout-batch span whose compound RPC
  // carried this task, bridging the per-update and per-batch chains.
  if (obs_ != nullptr) {
    for (const obs::TraceLink& link : task.traces) {
      obs_->tracer.record(obs::Stage::kCommitE2e, obs_->tracer.child(link.ctx),
                          link.ctx.span, track_, link.enqueued_at, sim_->now(),
                          task.file, batch_span);
    }
  }
  for (auto& w : task.waiters) w.set_value(Done{});
  task.waiters.clear();

  auto fit = in_flight_files_.find(task.file);
  assert(fit != in_flight_files_.end());
  --in_flight_count_;
  if (--fit->second == 0) {
    in_flight_files_.erase(fit);
    // Waiters attached while this generation was in flight are satisfied
    // once it lands; writes issued after the fsync belong to a new task.
    if (auto wit = in_flight_waiters_.find(task.file);
        wit != in_flight_waiters_.end()) {
      for (auto& w : wit->second) w.set_value(Done{});
      in_flight_waiters_.erase(wit);
    }
  }
  // The acked record is dead; hand its buffers back for the next commit.
  slab_->recycle(std::move(task));
}

void CommitQueue::requeue(CommitTask task) {
  auto fit = in_flight_files_.find(task.file);
  assert(fit != in_flight_files_.end());
  --in_flight_count_;
  if (--fit->second == 0) in_flight_files_.erase(fit);

  const net::FileId file = task.file;
  auto it = queued_.find(file);
  if (it == queued_.end()) {
    queued_.emplace(file, std::move(task));
    order_.push_front(file);
  } else {
    // The failed task folds into the newer queued one: a merge.
    ++merged_;
    CommitTask& q = it->second;
    q.extents.insert(q.extents.end(), task.extents.begin(),
                     task.extents.end());
    q.block_tokens.insert(q.block_tokens.end(), task.block_tokens.begin(),
                          task.block_tokens.end());
    q.new_size_bytes = std::max(q.new_size_bytes, task.new_size_bytes);
    for (auto& w : task.waiters) q.waiters.push_back(std::move(w));
    for (auto& t : task.traces) q.traces.push_back(t);
    slab_->recycle(std::move(task));
  }
  refresh_state();
  work_.notify_all();
}

}  // namespace redbud::client
