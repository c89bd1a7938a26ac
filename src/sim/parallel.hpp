// Partitioned simulation kernel: conservative time-window parallelism.
//
// A SimDomain owns N Simulation partitions — one per simulated node (each
// client host, each MDS shard, the disk array behind the fabric) — and
// drives them from a pool of OS worker threads. Correctness rests on one
// invariant, the *lookahead* L: any event one partition schedules into
// another lies at least L in the simulated future (the network's minimum
// cross-node hop — link + switch latency — or the FC fabric latency,
// whichever is smaller). The coordinator therefore repeats:
//
//   1. deliver staged cross-partition injections into their target heaps,
//   2. m  := min over partitions of peek_next_time(),
//   3. stop if m > horizon, else run every partition concurrently through
//      the window [m, min(m + L, horizon)) — no partition can invalidate
//      another inside the window, because any injection it posts lands at
//      >= m + L,
//   4. barrier; go to 1.
//
// Determinism contract: within a partition events replay in exact
// (time, seq) order — run_window() is the same merge loop as
// Simulation::run_until. Cross-partition injections are sequenced by
// (time, src_partition, src_seq) before delivery, so the target's sequence
// numbers are assigned identically for any worker count, and a given
// config + seed + partition count replays identically for any nthreads,
// including 1, where the coordinator thread runs every partition itself.
//
// Threading model: only the worker that is currently running partition P
// touches P's state; the coordinator thread touches it only between
// rounds. The release-inc of round_gen_ / done_workers_ publishes each
// side's writes to the other (acquire loads), which is also what makes
// driver-side reads between run_until calls (ProcRef::done, queue depths,
// consistency checks) race-free under TSan.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/simulation.hpp"

namespace redbud::sim {

namespace detail {
[[noreturn]] void require_failed(const char* what, const char* file, int line);
}  // namespace detail

// Always-on invariant check (not compiled out in release builds): a stale
// cross-partition timestamp would silently corrupt the (time, seq) order,
// so the mailbox path refuses it loudly instead.
#define REDBUD_REQUIRE(cond, what)                                       \
  do {                                                                   \
    if (!(cond)) ::redbud::sim::detail::require_failed(what, __FILE__, __LINE__); \
  } while (0)

// Wall-clock accounting of one SimDomain's execution, read between
// run_until calls (the barrier's release/acquire pair makes the reads
// race-free). All wall-clock figures are steady_clock nanoseconds; they
// describe the host's execution of the simulation, never simulated time,
// and have no effect on the event stream.
struct KernelProfile {
  struct Partition {
    std::uint64_t events = 0;          // events dispatched by the partition
    std::uint64_t windows = 0;         // run_window calls issued to it
    std::uint64_t windows_active = 0;  // windows that dispatched >= 1 event
    std::uint64_t busy_ns = 0;         // wall time spent inside run_window
  };
  struct Worker {
    std::uint64_t busy_ns = 0;     // wall time executing partition windows
    std::uint64_t stall_ns = 0;    // barrier wake latency + coordinator wait
    std::uint64_t windows_run = 0; // partition windows this worker claimed
  };
  std::uint64_t rounds = 0;    // synchronization rounds run
  std::uint64_t wall_ns = 0;   // wall time inside run_until bodies
  std::uint64_t injections_staged = 0;     // cross-partition posts staged
  std::uint64_t injections_delivered = 0;  // staged posts delivered to heaps
  std::vector<Partition> partitions;
  std::vector<Worker> workers;  // [0] is the coordinator thread

  [[nodiscard]] std::uint64_t events_total() const {
    std::uint64_t n = 0;
    for (const auto& p : partitions) n += p.events;
    return n;
  }
  [[nodiscard]] std::uint64_t busy_ns_total() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w.busy_ns;
    return n;
  }
  [[nodiscard]] std::uint64_t stall_ns_total() const {
    std::uint64_t n = 0;
    for (const auto& w : workers) n += w.stall_ns;
    return n;
  }
  [[nodiscard]] std::uint64_t max_partition_events() const {
    std::uint64_t n = 0;
    for (const auto& p : partitions) n = std::max(n, p.events);
    return n;
  }
};

class SimDomain {
 public:
  // nthreads workers (0 counts as 1) run the window algorithm; at
  // nthreads == 1 the coordinator thread runs every partition itself, with
  // the same partition layout, staged injections and round loop, so
  // results are bit-identical across {1, 2, 4, ...} workers.
  explicit SimDomain(unsigned nthreads = 1,
                     SimTime lookahead = SimTime::micros(40));
  SimDomain(const SimDomain&) = delete;
  SimDomain& operator=(const SimDomain&) = delete;
  ~SimDomain();

  [[nodiscard]] unsigned nthreads() const { return nthreads_; }
  [[nodiscard]] SimTime lookahead() const { return lookahead_; }

  // One fresh partition per call. All partitions must exist before the
  // first run_until.
  Simulation& add_partition();
  [[nodiscard]] std::size_t nparts() const { return parts_.size(); }

  // Cross-partition event injection (the "mailbox push"). Must satisfy
  // at >= src.now() + lookahead; checked unconditionally. `fn` runs in
  // partition `dst` at time `at`, sequenced against all other injections
  // by (at, src_partition, src_seq).
  void post(Simulation& src, std::uint32_t dst, SimTime at, SmallFn fn);

  // Advance every partition to exactly `t` (all partitions' now() == t on
  // return), executing all events with time <= t.
  void run_until(SimTime t);

  // Valid between run_until calls (all partitions share the same clock).
  [[nodiscard]] SimTime now() const { return parts_[0]->now(); }
  [[nodiscard]] std::uint64_t events_processed() const;
  [[nodiscard]] std::size_t failure_count() const;
  void check_failures() const;

  // ---- Off-event probe (domain form; see Simulation::set_probe) ---------
  //
  // The probe fires from the coordinator between synchronization rounds:
  // before a round starting at min-time m, every pending instant <= m
  // fires — at that point all events strictly before m have executed in
  // every partition, and no event at >= m has, so the instant-m sample is
  // exact and earlier instants lag by less than one window (< lookahead,
  // 40 us of simulated time). The firing sequence depends only on the deterministic series of
  // round start times, so samples are bit-identical for any worker count.
  // The callback runs on the coordinator thread
  // while all workers are parked at the barrier.
  void set_probe(SimTime first, SimTime stride, void* ctx,
                 Simulation::ProbeFn fn);

  // Kernel self-profile: wall-clock accounting accumulated across every
  // run_until call so far.
  [[nodiscard]] KernelProfile kernel_profile() const;

 private:
  struct Injection {
    SimTime at;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint64_t seq;  // per-source-lane sequence, assigned at post()
    SmallFn fn;
  };
  // One staging lane per source partition: during a round only the worker
  // executing partition i appends to lanes_[i], so no locking is needed;
  // the coordinator drains every lane between rounds.
  struct Lane {
    std::vector<Injection> staged;
    std::uint64_t next_seq = 0;
    std::uint64_t staged_total = 0;  // lifetime count, owner-thread written
  };
  // Per-partition profile slice, written only by the worker currently
  // running the partition; read by the coordinator between rounds.
  struct PartStats {
    std::uint64_t windows = 0;
    std::uint64_t windows_active = 0;
    std::uint64_t busy_ns = 0;
  };
  // Per-worker profile slice (index 0 = coordinator), same ownership rule.
  struct WorkerStats {
    std::uint64_t busy_ns = 0;
    std::uint64_t stall_ns = 0;
    std::uint64_t windows_run = 0;
  };

  void ensure_workers();
  void deliver_staged();
  void run_round(SimTime end, bool inclusive);
  void work_round(unsigned worker);
  void worker_loop(unsigned worker);
  void fire_probes(SimTime upto);

  unsigned nthreads_;
  SimTime lookahead_;
  std::vector<std::unique_ptr<Simulation>> parts_;
  std::vector<Lane> lanes_;
  std::vector<Injection> deliver_buf_;

  // Probe state.
  SimTime probe_next_ = SimTime::max();
  SimTime probe_stride_ = SimTime::zero();
  void* probe_ctx_ = nullptr;
  Simulation::ProbeFn probe_fn_ = nullptr;

  // Profile accumulators. pstats_/wstats_ follow the same ownership
  // discipline as the partitions themselves; the scalar counters are
  // coordinator-only.
  std::vector<PartStats> pstats_;
  std::vector<WorkerStats> wstats_;
  std::uint64_t rounds_ = 0;
  std::uint64_t wall_ns_ = 0;
  std::uint64_t injections_delivered_ = 0;
  // Wall-clock stamp taken just before the round_gen_ release-increment;
  // workers read it after their acquire load to account wake latency.
  std::uint64_t round_start_wall_ns_ = 0;

  // Round control. round_end_/round_inclusive_ are published to workers by
  // the release-increment of round_gen_ and read back under its acquire.
  SimTime round_end_ = SimTime::zero();
  bool round_inclusive_ = false;
  std::atomic<std::uint64_t> round_gen_{0};
  std::atomic<std::uint32_t> next_part_{0};
  std::atomic<std::uint32_t> done_workers_{0};
  std::atomic<bool> quit_{false};
  std::vector<std::thread> workers_;
};

}  // namespace redbud::sim
