#include "workload/openloop.hpp"

#include <algorithm>
#include <cassert>

#include "sim/simulation.hpp"

namespace redbud::workload {

using net::Status;
using redbud::sim::Done;
using redbud::sim::Process;
using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;

const char* op_class_name(OpClass c) {
  switch (c) {
    case OpClass::kCreate:
      return "create";
    case OpClass::kWrite:
      return "write";
    case OpClass::kRead:
      return "read";
    case OpClass::kFsync:
      return "fsync";
    case OpClass::kRemove:
      return "remove";
  }
  return "?";
}

OpenLoopEngine::OpenLoopEngine(redbud::sim::Simulation& sim,
                               client::ClientHost& host, OpenLoopParams params,
                               redbud::sim::Rng rng)
    : sim_(&sim),
      host_(&host),
      params_(params),
      rng_(rng),
      arrivals_(params.arrivals, rng_.split()),
      zipf_(std::uint64_t(params.clients) * params.files_per_client,
            params.zipf_theta) {
  assert(params_.clients > 0 && params_.files_per_client > 0);
  double total = 0;
  for (const double w : params_.mix) total += w;
  assert(total > 0);
  double acc = 0;
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    acc += params_.mix[i] / total;
    cum_mix_[i] = acc;
  }
  files_.assign(std::uint64_t(params_.clients) * params_.files_per_client,
                net::kInvalidFile);
  sessions_.reserve(params_.clients);
  for (std::uint32_t c = 0; c < params_.clients; ++c) {
    sessions_.push_back(&host_->open_session());
  }
}

std::string OpenLoopEngine::file_name(std::uint32_t client,
                                      std::uint32_t slot) const {
  return "h" + std::to_string(host_->host_id()) + "_c" +
         std::to_string(client) + "_f" + std::to_string(slot);
}

SimFuture<Done> OpenLoopEngine::prepare() {
  assert(!prep_promise_.has_value() && "prepare() called twice");
  prep_promise_.emplace(*sim_);
  auto fut = prep_promise_->future();
  const std::uint32_t lanes =
      std::min(params_.prepare_parallelism, params_.clients);
  prepared_pending_ = lanes;
  const std::uint32_t per = (params_.clients + lanes - 1) / lanes;
  for (std::uint32_t l = 0; l < lanes; ++l) {
    const std::uint32_t first = l * per;
    if (first >= params_.clients) {
      // Short final stripe: the lane has no clients, retire it now.
      if (--prepared_pending_ == 0) prep_promise_->set_value(Done{});
      continue;
    }
    const std::uint32_t n = std::min(per, params_.clients - first);
    sim_->spawn(creator(first, n));
  }
  return fut;
}

Process OpenLoopEngine::creator(std::uint32_t first_client,
                                std::uint32_t nclients) {
  for (std::uint32_t c = first_client; c < first_client + nclients; ++c) {
    auto& fs = *sessions_[c];
    for (std::uint32_t s = 0; s < params_.files_per_client; ++s) {
      auto cfut = fs.create(net::kRootDir, file_name(c, s));
      const net::FileId id = co_await cfut;
      if (id == net::kInvalidFile) {
        ++prepare_failures_;
        continue;
      }
      files_[std::uint64_t(c) * params_.files_per_client + s] = id;
      auto wfut = fs.write(id, 0, params_.write_bytes);
      if (co_await wfut != Status::kOk) ++prepare_failures_;
    }
  }
  if (--prepared_pending_ == 0) prep_promise_->set_value(Done{});
}

void OpenLoopEngine::register_metrics(obs::MetricsRegistry& reg,
                                      std::uint32_t host_id) {
  const obs::Labels labels = {{"host", std::to_string(host_id)}};
  reg.register_value("openloop.outstanding", labels, &outstanding_);
  reg.register_value("openloop.shed", labels, &shed_);
  reg.register_value("openloop.arrivals", labels, &arrivals_n_);
}

void OpenLoopEngine::start(const Schedule& schedule) {
  assert(!started_);
  assert(schedule.measure_from <= schedule.measure_until &&
         schedule.measure_until <= schedule.stop_at &&
         schedule.start_at <= schedule.measure_from);
  started_ = true;
  sched_ = schedule;
  measured_span_ = sched_.measure_until - sched_.measure_from;
  sim_->spawn(dispatcher());
}

OpClass OpenLoopEngine::sample_class() {
  const double u = rng_.next_double();
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    if (u < cum_mix_[i]) return static_cast<OpClass>(i);
  }
  return OpClass::kRemove;
}

Process OpenLoopEngine::dispatcher() {
  // Spawned before the cluster runs, so now() here is 0 and the wait
  // below lands at the same absolute instant on every replay.
  // (Spawning mid-run from the host thread would anchor the dispatcher at
  // a partition-local now(), which is not a shared clock inside a round.)
  if (sched_.start_at > sim_->now()) {
    co_await sim_->delay(sched_.start_at - sim_->now());
  }
  assert(prepared_pending_ == 0 && "start_at arrived before prepare() done");
  for (;;) {
    co_await sim_->delay(arrivals_.next_gap(sim_->now()));
    const SimTime now = sim_->now();
    if (stopped_ || now >= sched_.stop_at) co_return;
    ++arrivals_n_;
    if (outstanding_ >= params_.max_outstanding) {
      ++shed_;
      continue;
    }
    OpClass cls = sample_class();
    // A remove with nothing scratch-created yet becomes a create, so the
    // scratch namespace stays balanced instead of shedding the op.
    if (cls == OpClass::kRemove && scratch_names_.empty()) {
      cls = OpClass::kCreate;
    }
    const std::uint64_t slot = zipf_.sample(rng_);
    const auto client =
        static_cast<std::uint32_t>(slot / params_.files_per_client);
    const bool measured =
        now >= sched_.measure_from && now < sched_.measure_until;
    sim_->spawn(op_proc(cls, client, slot, measured));
  }
}

Process OpenLoopEngine::op_proc(OpClass cls, std::uint32_t client,
                                std::uint64_t file_slot, bool measured) {
  ++outstanding_;
  if (outstanding_ > peak_out_) peak_out_ = outstanding_;
  // Re-check the scratch stack: an earlier remove issued this timestep
  // may have drained it between dispatch and here.
  if (cls == OpClass::kRemove && scratch_names_.empty()) {
    cls = OpClass::kCreate;
  }
  OpClassStats& st = stats_[static_cast<std::size_t>(cls)];
  ++st.issued;
  const SimTime t0 = sim_->now();
  auto& fs = *sessions_[client];
  Status status = Status::kOk;
  switch (cls) {
    case OpClass::kCreate: {
      const std::string name = "h" + std::to_string(host_->host_id()) + "_s" +
                               std::to_string(scratch_seq_++);
      auto fut = fs.create(net::kRootDir, name);
      const net::FileId id = co_await fut;
      if (id == net::kInvalidFile) {
        status = Status::kUnavailable;
      } else {
        scratch_names_.push_back(name);
      }
      break;
    }
    case OpClass::kWrite: {
      auto fut = fs.write(files_[file_slot], 0, params_.write_bytes);
      status = co_await fut;
      break;
    }
    case OpClass::kRead: {
      auto fut = fs.read(files_[file_slot], 0, params_.read_bytes);
      const fsapi::ReadResult rr = co_await fut;
      status = rr.status;
      break;
    }
    case OpClass::kFsync: {
      auto fut = fs.fsync(files_[file_slot]);
      status = co_await fut;
      break;
    }
    case OpClass::kRemove: {
      const std::string name = std::move(scratch_names_.back());
      scratch_names_.pop_back();
      auto fut = fs.remove(net::kRootDir, name);
      status = co_await fut;
      break;
    }
  }
  ++st.completed;
  if (status != Status::kOk) ++st.failed;
  if (measured) st.latency.record(sim_->now() - t0);
  --outstanding_;
}

}  // namespace redbud::workload
