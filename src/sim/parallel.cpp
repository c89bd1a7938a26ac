#include "sim/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace redbud::sim {

namespace detail {

void require_failed(const char* what, const char* file, int line) {
  std::fprintf(stderr, "REDBUD_REQUIRE failed: %s (%s:%d)\n", what, file,
               line);
  std::fflush(stderr);
  std::abort();
}

namespace {

// Monotonic wall clock for the kernel self-profile. Nanoseconds since an
// arbitrary epoch; only differences are ever used.
std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Spin politely, then back off to real sleeps: rounds are short (tens of
// microseconds of real time), but between run_until calls the driver may
// run long serial phases (consistency checks, exports) and the pool must
// not burn cores while it does.
struct Backoff {
  unsigned spins = 0;
  void pause() {
    if (spins < 64) {
      ++spins;
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(
          spins < 256 ? 50 : 500));
      if (spins < 256) ++spins;
    }
  }
};
}  // namespace

}  // namespace detail

SimDomain::SimDomain(unsigned nthreads, SimTime lookahead)
    : nthreads_(nthreads == 0 ? 1 : nthreads), lookahead_(lookahead) {
  REDBUD_REQUIRE(lookahead_ > SimTime::zero(),
                 "domain lookahead must be positive");
  wstats_.resize(nthreads_);
}

SimDomain::~SimDomain() {
  if (!workers_.empty()) {
    quit_.store(true, std::memory_order_relaxed);
    round_gen_.fetch_add(1, std::memory_order_release);
    for (auto& w : workers_) w.join();
  }
}

Simulation& SimDomain::add_partition() {
  REDBUD_REQUIRE(workers_.empty(), "cannot add partitions after first run");
  auto sim = std::make_unique<Simulation>();
  sim->partition_id_ = static_cast<std::uint32_t>(parts_.size());
  parts_.push_back(std::move(sim));
  lanes_.resize(parts_.size());
  pstats_.resize(parts_.size());
  return *parts_.back();
}

void SimDomain::post(Simulation& src, std::uint32_t dst, SimTime at,
                     SmallFn fn) {
  REDBUD_REQUIRE(dst < parts_.size(), "injection into unknown partition");
  REDBUD_REQUIRE(at >= src.now() + lookahead_,
                 "cross-partition injection inside the lookahead window");
  Lane& lane = lanes_[src.partition_id()];
  ++lane.staged_total;
  lane.staged.push_back(
      {at, src.partition_id(), dst, lane.next_seq++, std::move(fn)});
}

void SimDomain::deliver_staged() {
  deliver_buf_.clear();
  for (Lane& lane : lanes_) {
    for (auto& inj : lane.staged) deliver_buf_.push_back(std::move(inj));
    lane.staged.clear();
  }
  if (deliver_buf_.empty()) return;
  injections_delivered_ += deliver_buf_.size();
  // Total order over injections: (time, src partition, per-source seq).
  // Target-side sequence numbers are assigned in this order, so replay is
  // identical for any worker count.
  std::sort(deliver_buf_.begin(), deliver_buf_.end(),
            [](const Injection& a, const Injection& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (auto& inj : deliver_buf_) {
    Simulation& target = *parts_[inj.dst];
    REDBUD_REQUIRE(inj.at >= target.now(),
                   "cross-partition injection behind the target clock");
    target.call_at(inj.at, std::move(inj.fn));
  }
  deliver_buf_.clear();
}

void SimDomain::ensure_workers() {
  if (!workers_.empty()) return;
  workers_.reserve(nthreads_ - 1);
  for (unsigned i = 1; i < nthreads_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

void SimDomain::work_round(unsigned worker) {
  WorkerStats& ws = wstats_[worker];
  for (;;) {
    const std::uint32_t i =
        next_part_.fetch_add(1, std::memory_order_relaxed);
    if (i >= parts_.size()) return;
    Simulation& part = *parts_[i];
    PartStats& ps = pstats_[i];
    const std::uint64_t before = part.events_processed();
    const std::uint64_t t0 = detail::wall_now_ns();
    part.run_window(round_end_, round_inclusive_);
    const std::uint64_t dt = detail::wall_now_ns() - t0;
    ps.busy_ns += dt;
    ps.windows += 1;
    if (part.events_processed() != before) ps.windows_active += 1;
    ws.busy_ns += dt;
    ws.windows_run += 1;
  }
}

void SimDomain::worker_loop(unsigned worker) {
  std::uint64_t seen = 0;
  for (;;) {
    detail::Backoff backoff;
    std::uint64_t gen;
    while ((gen = round_gen_.load(std::memory_order_acquire)) == seen) {
      backoff.pause();
    }
    seen = gen;
    if (quit_.load(std::memory_order_relaxed)) return;
    // Wake latency: the coordinator stamped round_start_wall_ns_ right
    // before the release-increment we just acquired, so the difference is
    // this worker's barrier-exit stall for the round.
    const std::uint64_t woke = detail::wall_now_ns();
    if (woke > round_start_wall_ns_) {
      wstats_[worker].stall_ns += woke - round_start_wall_ns_;
    }
    work_round(worker);
    done_workers_.fetch_add(1, std::memory_order_release);
  }
}

void SimDomain::run_round(SimTime end, bool inclusive) {
  round_end_ = end;
  round_inclusive_ = inclusive;
  next_part_.store(0, std::memory_order_relaxed);
  done_workers_.store(0, std::memory_order_relaxed);
  round_start_wall_ns_ = detail::wall_now_ns();
  round_gen_.fetch_add(1, std::memory_order_release);
  work_round(0);  // the coordinator participates
  detail::Backoff backoff;
  const auto target = static_cast<std::uint32_t>(workers_.size());
  const std::uint64_t wait0 = detail::wall_now_ns();
  while (done_workers_.load(std::memory_order_acquire) != target) {
    backoff.pause();
  }
  // The coordinator's stall is the tail wait at the closing barrier: how
  // long the slowest worker kept it idle after its own partitions ran dry.
  wstats_[0].stall_ns += detail::wall_now_ns() - wait0;
}

void SimDomain::fire_probes(SimTime upto) {
  while (probe_next_ <= upto) {
    const SimTime instant = probe_next_;
    probe_next_ = probe_next_ + probe_stride_;
    probe_fn_(probe_ctx_, instant);
  }
}

void SimDomain::run_until(SimTime t) {
  REDBUD_REQUIRE(!parts_.empty(), "domain has no partitions");
  ensure_workers();
  const std::uint64_t t0 = detail::wall_now_ns();
  for (;;) {
    deliver_staged();
    SimTime m = SimTime::max();
    for (const auto& p : parts_) m = std::min(m, p->peek_next_time());
    if (m > t) break;
    // All events strictly before m have executed and none at >= m has:
    // probe grid instants <= m sample here (instant m exactly, earlier
    // instants with sub-window skew — see set_probe).
    if (probe_next_ <= m) fire_probes(m);
    // Window [m, m + L), or the inclusive remainder [m, t] when the
    // horizon is nearer than the lookahead. Events at exactly t must run
    // (run_until semantics), and any injection a final-window event posts
    // lands at >= m + L > t — delivered by the next run_until call.
    if (t - m < lookahead_) {
      run_round(t, /*inclusive=*/true);
    } else {
      run_round(m + lookahead_, /*inclusive=*/false);
    }
    ++rounds_;
  }
  if (probe_next_ <= t) fire_probes(t);
  for (const auto& p : parts_) p->advance_to(t);
  wall_ns_ += detail::wall_now_ns() - t0;
}

void SimDomain::set_probe(SimTime first, SimTime stride, void* ctx,
                          Simulation::ProbeFn fn) {
  REDBUD_REQUIRE(!parts_.empty(), "probe on a domain with no partitions");
  REDBUD_REQUIRE(stride > SimTime::zero(), "probe stride must be positive");
  probe_next_ = first;
  probe_stride_ = stride;
  probe_ctx_ = ctx;
  probe_fn_ = fn;
}

KernelProfile SimDomain::kernel_profile() const {
  KernelProfile kp;
  kp.rounds = rounds_;
  kp.wall_ns = wall_ns_;
  kp.injections_delivered = injections_delivered_;
  for (const Lane& lane : lanes_) kp.injections_staged += lane.staged_total;
  kp.partitions.resize(parts_.size());
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    kp.partitions[i].events = parts_[i]->events_processed();
    kp.partitions[i].windows = pstats_[i].windows;
    kp.partitions[i].windows_active = pstats_[i].windows_active;
    kp.partitions[i].busy_ns = pstats_[i].busy_ns;
  }
  kp.workers.resize(wstats_.size());
  for (std::size_t i = 0; i < wstats_.size(); ++i) {
    kp.workers[i].busy_ns = wstats_[i].busy_ns;
    kp.workers[i].stall_ns = wstats_[i].stall_ns;
    kp.workers[i].windows_run = wstats_[i].windows_run;
  }
  return kp;
}

std::uint64_t SimDomain::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& p : parts_) total += p->events_processed();
  return total;
}

std::size_t SimDomain::failure_count() const {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p->failure_count();
  return total;
}

void SimDomain::check_failures() const {
  for (const auto& p : parts_) p->check_failures();
}

}  // namespace redbud::sim
