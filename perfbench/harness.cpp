// perfbench harness: builds one benchmark workload through the library's
// public API (core::Testbed / core::Cluster, workload::run_workload,
// client::ClientHost + workload::OpenLoopEngine), runs it once, checks its
// outputs and prints one JSON object of raw measurements on stdout.
// perfbench/run.py repeats it, aggregates medians and prints the metrics.
//
//   perfbench_harness --workload NAME --seed N [--threads T (shard8-t4)] [--traced]
//                     [--extra-setups K]
//   perfbench_harness --selftest
//
// Everything is measured from outside the library: host time around the
// calls into it, simulated latency per FsClient call (TimedFs below), and
// counters read from public accessors and the obs::MetricsRegistry.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <coroutine>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/flyweight.hpp"
#include "core/cluster.hpp"
#include "core/recovery.hpp"
#include "core/testbed.hpp"
#include "obs/critical_path.hpp"
#include "sim/future.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "workload/filebench.hpp"
#include "workload/openloop.hpp"
#include "workload/workload.hpp"
#include "workload/xcdn.hpp"

namespace {

using namespace redbud;
using redbud::sim::LatencyHistogram;
using redbud::sim::SimTime;

double host_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// VmRSS / VmHWM of this process in KiB.
struct Mem {
  double rss_kib = 0;
  double hwm_kib = 0;
};
Mem read_mem() {
  Mem m;
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmRSS:") {
      in >> m.rss_kib;
    } else if (key == "VmHWM:") {
      in >> m.hwm_kib;
    } else {
      in.ignore(256, '\n');
    }
  }
  return m;
}

// ---------------------------------------------------------------------------
// Exact order statistics
// ---------------------------------------------------------------------------

// Nearest-rank percentile: the ceil(n * p / 100)-th smallest sample. This
// is the rank LatencyHistogram::percentile looks up, so the exact value
// must lie in the bucket whose upper edge the histogram reports.
std::int64_t order_stat(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(std::ceil(double(v.size()) * p / 100.0));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
  return v[rank - 1];
}

// The upper edge of the histogram bucket that holds `ns`, computed by the
// library's own bucketing.
SimTime bucket_edge(std::int64_t ns) {
  LatencyHistogram h;
  h.record(SimTime::nanos(ns));
  return h.percentile(50);
}

// ---------------------------------------------------------------------------
// Output: checks and a flat JSON object
// ---------------------------------------------------------------------------

struct Report {
  std::vector<std::pair<std::string, std::string>> fields;  // key -> JSON
  std::vector<std::string> failed_checks;
  std::size_t checks = 0;

  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    fields.emplace_back(k, buf);
  }
  void str(const std::string& k, const std::string& v) {
    fields.emplace_back(k, "\"" + v + "\"");
  }
  void check(const std::string& what, bool ok) {
    ++checks;
    if (!ok) failed_checks.push_back(what);
  }
  std::string json() const {
    std::ostringstream o;
    o << "{";
    for (const auto& [k, v] : fields) o << "\"" << k << "\": " << v << ", ";
    o << "\"checks\": " << checks << ", \"failed_checks\": [";
    for (std::size_t i = 0; i < failed_checks.size(); ++i) {
      o << (i ? ", " : "") << "\"" << failed_checks[i] << "\"";
    }
    o << "]}";
    return o.str();
  }
};

// ---------------------------------------------------------------------------
// Per-call simulated latency at the FsClient boundary
// ---------------------------------------------------------------------------

// Call classes. create/remove change the namespace, open only reads it;
// close is bookkeeping and belongs to no reported class.
enum Cls : std::size_t { kWrite, kRead, kCreateRemove, kOpen, kFsync, kClose, kNumCls };
constexpr const char* kClsName[kNumCls] = {"write", "read",  "create_remove",
                                           "open",  "fsync", "close"};
using ClsSamples = std::array<std::vector<std::int64_t>, kNumCls>;

// The reported sets: the data and namespace calls, the updates among them
// (calls that change file-system state) and the metadata calls (one MDS
// round trip each). fsync is a durability barrier, not an operation on
// data or names: its wait is the commit lag the per-layer metrics report.
const std::vector<Cls> kOpSet = {kWrite, kRead, kCreateRemove, kOpen};
const std::vector<Cls> kUpdateSet = {kWrite, kCreateRemove};
const std::vector<Cls> kMetaSet = {kCreateRemove, kOpen};

std::vector<std::int64_t> gather(const ClsSamples& w, const std::vector<Cls>& set) {
  std::vector<std::int64_t> v;
  for (const Cls c : set) v.insert(v.end(), w[c].begin(), w[c].end());
  return v;
}

// Exact mean in nanoseconds, truncated like LatencyHistogram::mean.
std::int64_t mean_ns(const std::vector<std::int64_t>& v) {
  if (v.empty()) return 0;
  __int128 sum = 0;
  for (auto x : v) sum += x;
  return std::int64_t(sum / __int128(v.size()));
}

struct CallLog {
  ClsSamples window_ns;                        // measured calls
  std::array<std::uint64_t, kNumCls> calls{};  // every call
};

// Eagerly started, self-destroying coroutine.
struct Relay {
  struct promise_type {
    Relay get_return_object() noexcept { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { std::terminate(); }
  };
};

// FsClient decorator handed to workload threads: forwards every call and
// records its simulated latency when the workload's measured window is
// open at completion — the rule the workload's own histograms use.
class TimedFs final : public fsapi::FsClient {
 public:
  TimedFs(fsapi::FsClient& inner, redbud::sim::Simulation& sim,
          workload::WorkloadContext& ctx, CallLog& log)
      : inner_(inner), sim_(sim), ctx_(ctx), log_(log) {}

  redbud::sim::SimFuture<net::FileId> create(net::DirId d,
                                             std::string n) override {
    return timed(kCreateRemove, inner_.create(d, std::move(n)));
  }
  redbud::sim::SimFuture<fsapi::OpenResult> open(net::DirId d,
                                                 std::string n) override {
    return timed(kOpen, inner_.open(d, std::move(n)));
  }
  redbud::sim::SimFuture<net::Status> write(net::FileId f, std::uint64_t off,
                                            std::uint32_t n) override {
    return timed(kWrite, inner_.write(f, off, n));
  }
  redbud::sim::SimFuture<fsapi::ReadResult> read(net::FileId f,
                                                 std::uint64_t off,
                                                 std::uint32_t n) override {
    return timed(kRead, inner_.read(f, off, n));
  }
  redbud::sim::SimFuture<net::Status> fsync(net::FileId f) override {
    return timed(kFsync, inner_.fsync(f));
  }
  redbud::sim::SimFuture<net::Status> close(net::FileId f) override {
    return timed(kClose, inner_.close(f));
  }
  redbud::sim::SimFuture<net::Status> remove(net::DirId d,
                                             std::string n) override {
    return timed(kCreateRemove, inner_.remove(d, std::move(n)));
  }
  storage::ContentToken expected_token(net::FileId f,
                                       std::uint64_t b) const override {
    return inner_.expected_token(f, b);
  }

 private:
  template <typename T>
  redbud::sim::SimFuture<T> timed(Cls c, redbud::sim::SimFuture<T> inner) {
    ++log_.calls[c];
    auto outer = std::make_shared<redbud::sim::detail::FutureShared<T>>();
    outer->sim = &sim_;
    relay<T>(std::move(inner), outer, c, sim_.now());
    return redbud::sim::SimFuture<T>(outer);
  }

  // Waits on the library's future in the waiter slot the caller would have
  // taken, notes the completion instant, then resumes the caller inline.
  // The kernel therefore dispatches exactly the events it would without
  // the probe, in the same order: the probe is passive (the self-test
  // checks it).
  template <typename T>
  Relay relay(redbud::sim::SimFuture<T> inner,
              std::shared_ptr<redbud::sim::detail::FutureShared<T>> outer, Cls c,
              SimTime t0) {
    try {
      outer->value.emplace(co_await inner);
    } catch (...) {
      outer->error = std::current_exception();
    }
    if (ctx_.measuring) log_.window_ns[c].push_back((sim_.now() - t0).ns());
    auto waiters = std::move(outer->waiters);
    outer->waiters.clear();
    for (auto h : waiters) h.resume();
  }

  fsapi::FsClient& inner_;
  redbud::sim::Simulation& sim_;
  workload::WorkloadContext& ctx_;
  CallLog& log_;
};

// Workload wrapper: prepare() runs untouched; every workload thread gets a
// TimedFs for its client. The first thread() call marks the end of set-up
// (run_workload calls it from its coordinating thread once every prepare()
// has finished), where `on_setup_done` snapshots host time and counters.
class ProbedWorkload final : public workload::Workload {
 public:
  ProbedWorkload(workload::Workload& inner, std::function<void()> on_setup_done)
      : inner_(inner), on_setup_done_(std::move(on_setup_done)) {}

  std::string name() const override { return inner_.name(); }
  std::uint32_t threads_per_client() const override {
    return inner_.threads_per_client();
  }
  bool fixed_work() const override { return inner_.fixed_work(); }
  void presize(std::uint32_t n) override { inner_.presize(n); }
  redbud::sim::Process prepare(redbud::sim::Simulation& sim,
                               fsapi::FsClient& fs, std::uint32_t client,
                               workload::WorkloadContext& ctx) override {
    return inner_.prepare(sim, fs, client, ctx);
  }
  redbud::sim::Process thread(redbud::sim::Simulation& sim,
                              fsapi::FsClient& fs, std::uint32_t client,
                              std::uint32_t tid,
                              workload::WorkloadContext& ctx) override {
    if (!setup_done_) {
      setup_done_ = true;
      on_setup_done_();
    }
    if (logs_.size() <= client) {
      logs_.resize(client + 1);
      fs_.resize(client + 1);
    }
    if (!fs_[client]) {
      logs_[client] = std::make_unique<CallLog>();
      fs_[client] = std::make_unique<TimedFs>(fs, sim, ctx, *logs_[client]);
    }
    return inner_.thread(sim, *fs_[client], client, tid, ctx);
  }

  // Every client's log folded into one.
  CallLog merged() const {
    CallLog all;
    for (const auto& l : logs_) {
      if (!l) continue;
      for (std::size_t c = 0; c < kNumCls; ++c) {
        all.calls[c] += l->calls[c];
        all.window_ns[c].insert(all.window_ns[c].end(), l->window_ns[c].begin(),
                                l->window_ns[c].end());
      }
    }
    return all;
  }

 private:
  workload::Workload& inner_;
  std::function<void()> on_setup_done_;
  bool setup_done_ = false;
  std::vector<std::unique_ptr<CallLog>> logs_;
  std::vector<std::unique_ptr<TimedFs>> fs_;
};

// Live commit daemons per client, sampled every 10 ms of simulated time
// during the run phase of traced runs by an off-event kernel probe (it
// fires between events and never schedules any).
struct DaemonSampler {
  core::Cluster* cluster = nullptr;
  bool active = false;
  double sum = 0;
  std::uint64_t samples = 0;

  void install(core::Cluster& c) {
    cluster = &c;
    c.domain().set_probe(SimTime::millis(10), SimTime::millis(10), this, &fire);
  }
  static void fire(void* ctx, SimTime) {
    auto* self = static_cast<DaemonSampler*>(ctx);
    if (!self->active) return;
    for (std::size_t i = 0; i < self->cluster->nclients(); ++i) {
      self->sum += self->cluster->client(i).commit_pool().live_threads();
    }
    ++self->samples;
  }
  [[nodiscard]] double mean_per_client() const {
    return samples == 0 ? 0.0 : sum / double(samples * cluster->nclients());
  }
};

// ---------------------------------------------------------------------------
// Counter snapshots (set-up end and run end) for run-phase deltas
// ---------------------------------------------------------------------------

using Snapshot = std::map<std::string, double>;

std::string base_name(const std::string& canonical) {
  return canonical.substr(0, canonical.find('{'));
}

Snapshot snapshot(core::Cluster& c) {
  Snapshot s;
  const auto& reg = c.obs().registry;
  for (const auto& [k, v] : reg.values()) s[base_name(k)] += double(*v);
  for (const auto& [k, v] : reg.counters()) s[base_name(k)] += double(v->value());
  auto& array = c.array();
  for (std::uint32_t d = 0; d < array.ndisks(); ++d) {
    const auto& disk = array.disk(d);
    s["disk.ios"] += double(disk.ios_serviced());
    s["disk.busy_ns"] += double(disk.busy_time().ns());
    s["disk.blocks_written"] += double(disk.blocks_written());
  }
  s["array.submitted"] = double(array.total_submitted());
  s["array.merged"] = double(array.total_merged());
  for (std::size_t i = 0; i < c.nclients(); ++i) {
    for (std::uint32_t sh = 0; sh < c.nshards(); ++sh) {
      s["pool.allocs"] += double(c.client(i).space_pool(sh).allocs());
    }
  }
  for (std::uint32_t sh = 0; sh < c.nshards(); ++sh) {
    s["mds.commit_entries.shard" + std::to_string(sh)] =
        double(c.mds(sh).commit_entries_processed());
  }
  const auto kp = c.domain().kernel_profile();
  s["kernel.events"] = double(kp.events_total());
  s["kernel.rounds"] = double(kp.rounds);
  s["kernel.busy_ns"] = double(kp.busy_ns_total());
  s["kernel.stall_ns"] = double(kp.stall_ns_total());
  for (std::size_t p = 0; p < kp.partitions.size(); ++p) {
    s["kernel.partition" + std::to_string(p)] = double(kp.partitions[p].events);
  }
  s["sim.now_ns"] = double(c.now().ns());
  s["host.s"] = host_seconds();
  return s;
}

double delta(const Snapshot& a, const Snapshot& b, const std::string& k) {
  const auto ia = a.find(k);
  const auto ib = b.find(k);
  return (ib == b.end() ? 0.0 : ib->second) - (ia == a.end() ? 0.0 : ia->second);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ---------------------------------------------------------------------------
// Run-phase accounting shared by the closed- and open-loop runs
// ---------------------------------------------------------------------------

struct Phase {
  double t0 = 0;  // host seconds at set-up start
  Snapshot setup_end;
  Snapshot run_end;
  Mem mem_before_sessions;
  Mem mem_after_setup;
  DaemonSampler daemons;
};

void mark_setup_end(core::Cluster& c, Phase& ph, bool traced) {
  ph.setup_end = snapshot(c);
  ph.mem_after_setup = read_mem();
  // Spans cover the run phase only: set-up's populate traffic would flood
  // the span log without telling anything about the measured pipeline.
  if (traced) c.obs().tracer.set_enabled(true);
  ph.daemons.active = true;
}

// Drain every client's commit queue so the durable state is final, then
// let background refills and returns settle.
void drain_commits(core::Cluster& c) {
  for (int spin = 0; spin < 3000; ++spin) {
    std::size_t pending = 0;
    for (std::size_t i = 0; i < c.nclients(); ++i) {
      auto& q = c.client(i).commit_queue();
      pending += q.size() + q.in_flight();
    }
    if (pending == 0) break;
    c.run_until(c.now() + SimTime::millis(20));
  }
  c.run_until(c.now() + SimTime::seconds(1));
}

// The simulated latency metrics (exact, from per-call samples) plus the
// per-class nearest-rank p50/p99 as reference figures.
void report_latency(Report& r, const ClsSamples& w) {
  auto us = [](std::int64_t ns) { return double(ns) / 1000.0; };
  const auto ops = gather(w, kOpSet);
  r.num("sim_op_mean_us", us(mean_ns(ops)));
  r.num("sim_op_p99_us", us(order_stat(ops, 99)));
  r.num("sim_update_mean_us", us(mean_ns(gather(w, kUpdateSet))));
  r.num("sim_meta_mean_us", us(mean_ns(gather(w, kMetaSet))));
  const std::pair<const char*, std::vector<Cls>> ref[] = {
      {"update", {kWrite}}, {"read", {kRead}}, {"meta", kMetaSet}};
  for (const auto& [name, set] : ref) {
    const auto v = gather(w, set);
    r.num(std::string("ref_") + name + "_p50_us", us(order_stat(v, 50)));
    r.num(std::string("ref_") + name + "_p99_us", us(order_stat(v, 99)));
  }
}

// Checks shared by every workload once the run is over and drained.
void cluster_checks(Report& r, core::Cluster& c) {
  const auto rep = core::check_consistency(c);
  r.check("consistency: zero inconsistent blocks", rep.consistent());
  r.check("consistency: non-zero commits checked", rep.commits_checked > 0);
  const auto& reg = c.obs().registry;
  const auto enq = reg.sum("commit_queue.enqueued");
  const auto merged = reg.sum("commit_queue.merged");
  const auto committed = reg.sum("commit_queue.committed");
  // CommitQueue::drop discards a removed file's queued task without
  // counting it, so the law closes exactly only on runs without removes.
  std::uint64_t removes = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    const auto& ops = c.mds_endpoint(s).op_stats();
    if (auto it = ops.find("remove"); it != ops.end()) removes += it->second.received;
  }
  if (removes == 0) {
    r.check("conservation: enqueued == merged + committed",
            enq == merged + committed);
  } else {
    r.check("conservation: enqueued >= merged + committed (removes drop "
            "queued commits)",
            enq >= merged + committed);
  }
  std::uint64_t mds_entries = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    mds_entries += c.mds(s).commit_entries_processed();
  }
  r.check("conservation: pool entries sent == MDS entries applied",
          reg.sum("commit_pool.entries_committed") == mds_entries);
  r.check("conservation: RPCs sent == RPCs received",
          reg.sum("rpc.calls_sent") == reg.sum("rpc.calls_received"));
  r.check("faults: no retries", reg.sum("rpc.retries_sent") == 0);
}

// Per-layer metrics from the run-phase deltas (plus spans when traced).
void report_layers(Report& r, core::Cluster& c, const Phase& ph,
                   double run_ops, std::uint64_t sessions) {
  const Snapshot& a = ph.setup_end;
  const Snapshot& b = ph.run_end;
  auto d = [&](const std::string& k) { return delta(a, b, k); };
  const double events = d("kernel.events");
  const double rounds = d("kernel.rounds");
  r.num("sim.events", events);
  r.num("sim.events_per_op", ratio(events, run_ops));
  r.num("sim.host_ns_per_event", ratio(d("host.s") * 1e9, events));
  r.num("sim.rounds", rounds);
  r.num("sim.events_per_round", ratio(events, rounds));
  r.num("sim.busy_s", d("kernel.busy_ns") / 1e9);
  r.num("sim.stall_s", d("kernel.stall_ns") / 1e9);
  double max_part = 0;
  for (const auto& [k, v] : b) {
    if (k.rfind("kernel.partition", 0) == 0) max_part = std::max(max_part, d(k));
  }
  r.num("sim.max_partition_event_share", ratio(max_part, events));

  r.num("net.rpcs_per_op", ratio(d("rpc.calls_sent"), run_ops));
  r.num("net.request_bytes_per_op", ratio(d("rpc.request_bytes_sent"), run_ops));
  r.num("net.retries_sent", d("rpc.retries_sent"));

  const double hits = d("page_cache.hits");
  r.num("client.cache_hit_ratio", ratio(hits, hits + d("page_cache.misses")));
  r.num("client.cache_evictions", d("page_cache.evictions"));
  r.num("client.commit_merge_ratio",
        ratio(d("commit_queue.merged"), d("commit_queue.enqueued")));
  r.num("client.compound_degree",
        ratio(d("commit_pool.entries_committed"), d("commit_pool.rpcs_sent")));
  r.num("client.commit_daemons_mean", ph.daemons.mean_per_client());
  const double pool = d("pool.allocs");
  r.num("client.delegated_alloc_ratio", ratio(pool, pool + d("space.allocs")));

  r.num("mds.rpcs", d("mds.rpcs"));
  r.num("mds.commit_entries", d("mds.commit_entries"));
  r.num("mds.journal_records_per_flush",
        ratio(d("journal.records"), d("journal.flushes")));
  double lo = 0, hi = 0;
  for (std::uint32_t s = 0; s < c.nshards(); ++s) {
    const double v = d("mds.commit_entries.shard" + std::to_string(s));
    lo = s == 0 ? v : std::min(lo, v);
    hi = s == 0 ? v : std::max(hi, v);
  }
  r.num("mds.shard_commit_spread", ratio(hi, lo));

  const double sim_ns = d("sim.now_ns");
  r.num("storage.array_ios", d("disk.ios"));
  r.num("storage.merge_ratio", ratio(d("array.merged"), d("array.submitted")));
  r.num("storage.disk_busy_share",
        ratio(d("disk.busy_ns"), sim_ns * c.array().ndisks()));
  r.num("storage.blocks_written_per_user_block",
        ratio(d("disk.blocks_written"),
              d("client_fs.bytes_written") / double(storage::kBlockSize)));
  // The array keeps only a bucketed histogram per spindle, over the whole
  // run: its mean is exact (sum / count), its percentiles bucket edges.
  LatencyHistogram io;
  for (std::uint32_t dv = 0; dv < c.array().ndisks(); ++dv) {
    io.merge(c.array().scheduler(dv).latency());
  }
  r.num("storage.io_latency_mean_us", io.mean().to_micros());

  const auto& reg = c.obs().registry;
  r.num("fleet.sessions_live", double(reg.sum("client_host.sessions_live")));
  r.num("fleet.rss_kib_per_session",
        sessions ? (ph.mem_after_setup.rss_kib - ph.mem_before_sessions.rss_kib) /
                       double(sessions)
                 : 0.0);
  r.num("fleet.page_pool_peak_frames", double(reg.sum("page_pool.frames_peak")));
  r.num("fleet.commit_slab_peak", double(reg.sum("commit_slab.peak")));

  const auto& tracer = c.obs().tracer;
  r.num("obs.spans", double(tracer.spans().size()));
  r.num("obs.spans_dropped", double(tracer.spans_dropped()));
  if (!tracer.enabled()) return;
  std::vector<std::int64_t> rtt;
  std::vector<std::int64_t> lag;
  for (const auto& s : tracer.spans()) {
    if (s.stage == obs::Stage::kRpcWire) rtt.push_back((s.end - s.start).ns());
    if (s.stage == obs::Stage::kCommitE2e) lag.push_back((s.end - s.start).ns());
  }
  r.num("net.rpc_rtt_p99_us", double(order_stat(rtt, 99)) / 1e3);
  r.num("client.commit_lag_p99_ms", double(order_stat(lag, 99)) / 1e6);
  obs::CriticalPath blame;
  blame.analyze(tracer);
  const double total = double(blame.total().total_ns);
  for (std::size_t i = 0; i < obs::kBlameStageCount; ++i) {
    const auto st = obs::BlameStage(i);
    r.num(std::string("blame.") + obs::blame_stage_name(st),
          ratio(double(blame.stage(st).total_ns), total));
  }
  r.check("blame: every chain root completed or classified open",
          blame.roots() == blame.completed() + blame.open_total());
  r.check("obs: zero spans dropped", tracer.spans_dropped() == 0);
}

// Span-derived per-call latencies of the client stages, for calls issued
// inside [from, until) — the open-loop engine's measured-window rule.
ClsSamples span_latencies(const obs::Tracer& tracer, SimTime from,
                          SimTime until) {
  ClsSamples w;
  for (const auto& s : tracer.spans()) {
    if (s.start < from || s.start >= until) continue;
    Cls c = kClose;
    switch (s.stage) {
      case obs::Stage::kClientWrite: c = kWrite; break;
      case obs::Stage::kClientRead: c = kRead; break;
      // The open-loop engine issues creates and removes, never opens.
      case obs::Stage::kClientMeta: c = kCreateRemove; break;
      case obs::Stage::kClientFsync: c = kFsync; break;
      default: continue;
    }
    w[c].push_back((s.end - s.start).ns());
  }
  return w;
}

// The exact order statistic must sit in the bucket the library's own
// histogram reports for the same calls.
void check_in_bucket(Report& r, const std::string& what,
                     const std::vector<std::int64_t>& exact, double p,
                     SimTime reported) {
  if (exact.empty()) return;
  r.check(what + " p" + std::to_string(int(p)) + " inside histogram bucket",
          bucket_edge(order_stat(exact, p)) == reported);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int threads = 4;  // shard8-t4's kernel worker threads
  bool traced = false;
  int extra_setups = 0;  // closed loop: set-up-only passes after the run
};

// The paper testbed: 1 MDS + 7 clients, 4-disk array, 16 MiB client cache,
// aged-volume allocation scatter, Redbud with delayed commit.
core::TestbedParams paper_testbed() {
  core::TestbedParams p;
  p.protocol = core::Protocol::kRedbudDelayed;
  p.nclients = 7;
  p.redbud.array.ndisks = 4;
  p.redbud.client.cache_pages = 4096;
  p.redbud.space.fragmented = true;
  return p;
}

// mds_scaling's 8-shard small-file fileserver: 16 clients, 64 spindles
// dealt whole to shards, device-striped allocation groups.
core::TestbedParams shard8_testbed(unsigned threads) {
  core::TestbedParams p = paper_testbed();
  p.nclients = 16;
  p.redbud.nshards = 8;
  p.redbud.nthreads = threads;
  p.redbud.force_partitioned = true;
  p.redbud.array.ndisks = 64;
  p.redbud.space.across_ags = mds::AgSelect::kDeviceStripe;
  p.redbud.partition = core::SpacePartition::kWholeDevices;
  return p;
}

struct ClosedSpec {
  core::TestbedParams bed;
  std::unique_ptr<workload::Workload> work;
  SimTime warmup;
  SimTime window;
  // True when each of the workload's own histograms (write, read, meta
  // and all ops) times exactly one FsClient call, so the per-call samples
  // must reproduce them. xcdn times create+write+close as one "write" and
  // leaves creates untimed; only its reads are single calls.
  bool one_call_ops = true;
};

ClosedSpec closed_spec(const Args& a) {
  ClosedSpec s;
  if (a.workload == "paper-xcdn32k") {
    s.bed = paper_testbed();
    workload::XcdnParams x;
    x.file_bytes = 32 * 1024;
    x.threads_per_client = 4;
    x.initial_files_per_client = 2000;
    x.write_fraction = 0.7;
    x.read_zipf_theta = 0.99;
    s.work = std::make_unique<workload::XcdnWorkload>(x);
    s.warmup = SimTime::seconds(2);
    s.window = SimTime::seconds(16);
    s.one_call_ops = false;
  } else if (a.workload == "shard8-t4") {
    s.bed = shard8_testbed(unsigned(std::max(a.threads, 1)));
    workload::FilebenchParams f;
    f.nfiles_per_client = 150;
    f.threads_per_client = 16;
    f.mean_file_bytes = 8 * 1024;
    f.max_file_bytes = 32 * 1024;
    f.append_bytes = 8 * 1024;
    s.work = std::make_unique<workload::FileserverWorkload>(f);
    s.warmup = SimTime::millis(500);
    s.window = SimTime::seconds(1);
  } else {
    throw std::runtime_error("unknown workload '" + a.workload + "'");
  }
  return s;
}

// Per-call samples against one of the workload's own histograms: the
// same count, the same exact mean, and the p99 in the reported bucket.
void compare_to_workload(Report& r, const std::string& name,
                         const std::vector<std::int64_t>& ns,
                         std::uint64_t count, SimTime mean, SimTime p99) {
  r.check(name + " count == workload histogram count", ns.size() == count);
  r.check(name + " mean == workload histogram mean", mean_ns(ns) == mean.ns());
  check_in_bucket(r, name, ns, 99, p99);
}

void compare_to_workload(Report& r, const ClsSamples& w,
                         const workload::WorkloadResult& res, bool one_call_ops) {
  const auto& rd = res.read_stats;
  compare_to_workload(r, "per-call read", w[kRead], rd.count, rd.mean, rd.p99);
  if (!one_call_ops) return;
  const auto& wr = res.write_stats;
  compare_to_workload(r, "per-call write", w[kWrite], wr.count, wr.mean, wr.p99);
  const auto& mt = res.meta_stats;
  compare_to_workload(r, "per-call meta", gather(w, kMetaSet), mt.count, mt.mean,
                      mt.p99);
  compare_to_workload(r, "per-call ops",
                      gather(w, {kWrite, kRead, kCreateRemove, kOpen, kFsync}),
                      res.ops, res.mean_latency, res.p99_latency);
}

// One more set-up of the same workload: build, start and populate, then
// stop the threads at once. Only the set-up is timed.
double setup_once(const Args& a) {
  const double t0 = host_seconds();
  double t1 = t0;
  ClosedSpec spec = closed_spec(a);
  core::Testbed bed(spec.bed);
  bed.start();
  ProbedWorkload probed(*spec.work, [&] { t1 = host_seconds(); });
  workload::RunOptions opt;
  opt.seed = a.seed;
  opt.warmup = SimTime::zero();
  opt.duration = SimTime::zero();
  (void)workload::run_workload(bed, probed, opt);
  return t1 - t0;
}

Report run_closed(const Args& a) {
  Report r;
  Phase ph;
  ph.t0 = host_seconds();
  ClosedSpec spec = closed_spec(a);
  core::Testbed bed(spec.bed);
  core::Cluster& c = *bed.cluster();
  if (a.traced) ph.daemons.install(c);
  bed.start();
  ProbedWorkload probed(*spec.work,
                        [&] { mark_setup_end(c, ph, a.traced); });
  workload::RunOptions opt;
  opt.seed = a.seed;
  opt.warmup = spec.warmup;
  opt.duration = spec.window;
  const workload::WorkloadResult res = workload::run_workload(bed, probed, opt);
  ph.run_end = snapshot(c);
  const Mem mem = read_mem();
  const CallLog log = probed.merged();

  r.num("setup_s", ph.setup_end["host.s"] - ph.t0);
  r.num("run_s", ph.run_end["host.s"] - ph.setup_end["host.s"]);
  r.num("peak_rss_mib", mem.hwm_kib / 1024.0);
  r.num("events_total", double(bed.events_processed()));
  r.num("window_ops", double(res.ops));
  r.num("sim_ops_s", res.ops_per_sec);
  double run_ops = 0;
  for (auto n : log.calls) run_ops += double(n);
  r.num("run_ops", run_ops);
  report_latency(r, log.window_ns);

  r.check("verification reads all match", res.verify_failures == 0);
  r.check("no op errors", res.op_errors == 0);
  r.check("measured window completed ops", res.ops > 0);
  compare_to_workload(r, log.window_ns, res, spec.one_call_ops);
  report_layers(r, c, ph, run_ops, 0);
  r.num("fleet.peak_outstanding", 0);
  r.num("fleet.shed", 0);
  drain_commits(c);
  cluster_checks(r, c);
  // Set-up is short next to the run, so it is timed several times (after
  // the run, which has already taken its memory high-water mark).
  std::vector<double> setups = {ph.setup_end["host.s"] - ph.t0};
  for (int i = 0; i < a.extra_setups; ++i) setups.push_back(setup_once(a));
  std::sort(setups.begin(), setups.end());
  r.num("setup_median_s", setups[setups.size() / 2]);
  return r;
}

// fleet-100k: load_sweep's 8 hosts x 12 500 flyweight sessions against 4
// shards, Poisson arrivals at 1000 ops/s offered, partitioned kernel on
// one thread.
constexpr std::uint32_t kFleetHosts = 8;
constexpr std::uint32_t kFleetPerHost = 12500;
constexpr double kFleetOffered = 1000.0;
constexpr double kFleetWindowS = 30.0;

Report run_fleet(const Args& a) {
  Report r;
  Phase ph;
  ph.t0 = host_seconds();
  core::ClusterParams p;
  p.nclients = kFleetHosts;
  p.nshards = 4;
  p.nthreads = 1;
  p.force_partitioned = true;
  p.array.ndisks = 4;
  p.array.disk.total_blocks = 1 << 22;
  p.metadata_disk.total_blocks = 1 << 22;
  p.journal.region_blocks = 1 << 16;
  p.client.cache_pages = 1 << 14;
  auto cluster = std::make_unique<core::Cluster>(p);
  core::Cluster& c = *cluster;
  ph.mem_before_sessions = read_mem();

  std::vector<std::unique_ptr<client::ClientHost>> hosts;
  std::vector<std::unique_ptr<workload::OpenLoopEngine>> engines;
  redbud::sim::Rng master(a.seed);
  for (std::uint32_t h = 0; h < kFleetHosts; ++h) {
    hosts.push_back(std::make_unique<client::ClientHost>(c.client(h), h,
                                                         h * kFleetPerHost));
    hosts.back()->register_metrics(c.obs().registry);
    workload::OpenLoopParams op;
    op.arrivals.kind = workload::ArrivalKind::kPoisson;
    op.arrivals.rate = kFleetOffered / kFleetHosts;
    op.clients = kFleetPerHost;
    op.files_per_client = 1;
    op.write_bytes = 4 << 10;
    op.read_bytes = 4 << 10;
    op.prepare_parallelism = 128;
    engines.push_back(std::make_unique<workload::OpenLoopEngine>(
        c.client_sim(h), *hosts.back(), op, master.split()));
  }
  if (a.traced) ph.daemons.install(c);
  c.start();
  std::vector<redbud::sim::SimFuture<redbud::sim::Done>> prep;
  for (auto& e : engines) prep.push_back(e->prepare());
  const SimTime t_start = SimTime::seconds(60);
  const SimTime t_stop = t_start + SimTime::seconds(kFleetWindowS);
  for (auto& e : engines) e->start({t_start, t_start, t_stop, t_stop});
  bool prepared = false;
  while (!prepared && c.now() < t_start) {
    c.run_until(c.now() + SimTime::seconds(1));
    prepared = true;
    for (const auto& f : prep) prepared = prepared && f.ready();
  }
  c.check_failures();
  r.check("prepare finished before the first arrival", prepared);
  mark_setup_end(c, ph, a.traced);
  c.run_until(t_stop);
  std::uint64_t outstanding = 1;
  for (int s = 0; s < 120 && outstanding != 0; ++s) {
    c.run_until(c.now() + SimTime::seconds(1));
    outstanding = 0;
    for (auto& e : engines) outstanding += e->outstanding();
  }
  c.check_failures();
  ph.run_end = snapshot(c);
  const Mem mem = read_mem();

  workload::OpClassStats agg[workload::kNumOpClasses];
  std::uint64_t arrivals = 0, shed = 0, peak_out = 0, prep_fail = 0;
  for (auto& e : engines) {
    for (std::size_t i = 0; i < workload::kNumOpClasses; ++i) {
      agg[i].merge(e->stats(static_cast<workload::OpClass>(i)));
    }
    arrivals += e->arrivals_total();
    shed += e->shed_total();
    peak_out += e->peak_outstanding();
    prep_fail += e->prepare_failures();
  }
  std::uint64_t measured = 0, completed = 0, failed = 0;
  for (const auto& s : agg) {
    measured += s.latency.count();
    completed += s.completed;
    failed += s.failed;
  }
  using workload::OpClass;
  auto cls = [&](OpClass o) -> const workload::OpClassStats& {
    return agg[static_cast<std::size_t>(o)];
  };
  LatencyHistogram meta_hist = cls(OpClass::kCreate).latency;
  meta_hist.merge(cls(OpClass::kRemove).latency);
  LatencyHistogram op_hist = meta_hist;
  for (const auto o : {OpClass::kWrite, OpClass::kRead}) {
    op_hist.merge(cls(o).latency);
  }

  r.num("setup_s", ph.setup_end["host.s"] - ph.t0);
  r.num("run_s", ph.run_end["host.s"] - ph.setup_end["host.s"]);
  r.num("peak_rss_mib", mem.hwm_kib / 1024.0);
  r.num("events_total", double(c.events_processed()));
  r.num("window_ops", double(measured));
  r.num("sim_ops_s", double(measured) / kFleetWindowS);
  r.num("run_ops", double(completed));

  const double expect = kFleetOffered * kFleetWindowS;
  r.check("arrivals within 4 sigma of the Poisson count",
          std::fabs(double(arrivals) - expect) <= 4.0 * std::sqrt(expect));
  r.check("nothing shed", shed == 0);
  r.check("open-loop queue drained", outstanding == 0);
  r.check("no prepare failures", prep_fail == 0);
  r.check("no op failures", failed == 0);
  const auto& reg = c.obs().registry;
  r.check("gauges read back every live session",
          reg.sum("client_host.sessions_live") ==
              std::uint64_t(kFleetHosts) * kFleetPerHost);

  if (a.traced) {
    // Per-call latencies from the exact span instants; the engine's own
    // histograms must agree with them class by class.
    const auto w = span_latencies(c.obs().tracer, t_start, t_stop);
    report_latency(r, w);
    const std::pair<std::vector<Cls>, const LatencyHistogram*> pairs[] = {
        {{kWrite}, &cls(OpClass::kWrite).latency},
        {{kRead}, &cls(OpClass::kRead).latency},
        {{kCreateRemove}, &meta_hist},
        {{kFsync}, &cls(OpClass::kFsync).latency},
        {kOpSet, &op_hist}};
    for (const auto& [set, h] : pairs) {
      const auto v = gather(w, set);
      const std::string name =
          std::string("span ") + (set.size() > 1 ? "ops" : kClsName[set[0]]);
      r.check(name + " count == engine histogram count", v.size() == h->count());
      r.check(name + " mean == engine histogram mean",
              mean_ns(v) == h->mean().ns());
      check_in_bucket(r, name, v, 50, h->percentile(50));
      check_in_bucket(r, name, v, 99, h->percentile(99));
    }
  }
  report_layers(r, c, ph, double(completed),
                std::uint64_t(kFleetHosts) * kFleetPerHost);
  r.num("fleet.peak_outstanding", double(peak_out));
  r.num("fleet.shed", double(shed));
  drain_commits(c);
  cluster_checks(r, c);
  engines.clear();
  hosts.clear();
  return r;
}

// ---------------------------------------------------------------------------
// Self-test: exact percentiles against the histogram on a tiny run, and the
// timing probe's passivity (identical events and results with and without)
// ---------------------------------------------------------------------------

int selftest() {
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok) ++bad;
  };
  expect(order_stat({5}, 99) == 5, "order_stat of one sample");
  {
    std::vector<std::int64_t> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    expect(order_stat(v, 50) == 50 && order_stat(v, 99) == 99 &&
               order_stat(v, 100) == 100,
           "order_stat nearest rank on 1..100");
    LatencyHistogram h;
    for (auto x : v) h.record(SimTime::micros(x));
    for (double p : {50.0, 90.0, 99.0}) {
      std::vector<std::int64_t> ns;
      for (auto x : v) ns.push_back(x * 1000);
      expect(bucket_edge(order_stat(ns, p)) == h.percentile(p),
             "exact p" + std::to_string(int(p)) + " inside histogram bucket");
    }
  }
  // Tiny closed-loop runs, serial and partitioned (2 workers): plain versus
  // probed must dispatch the same events and report the same results.
  for (unsigned threads : {1u, 2u}) {
    auto make_bed = [&] {
      core::TestbedParams p = paper_testbed();
      p.nclients = 2;
      p.redbud.nshards = 2;
      p.redbud.nthreads = threads;
      return p;
    };
    workload::RunOptions opt;
    opt.seed = 7;
    opt.warmup = SimTime::millis(200);
    opt.duration = SimTime::millis(600);
    workload::FilebenchParams f = workload::WebproxyWorkload::webproxy_defaults();
    f.nfiles_per_client = 60;
    f.threads_per_client = 4;

    core::Testbed plain_bed(make_bed());
    plain_bed.start();
    workload::WebproxyWorkload plain_w(f);
    const auto plain = workload::run_workload(plain_bed, plain_w, opt);

    core::Testbed bed(make_bed());
    DaemonSampler daemons;
    daemons.install(*bed.cluster());
    daemons.active = true;
    bed.start();
    workload::WebproxyWorkload w(f);
    ProbedWorkload probed(w, [] {});
    const auto res = workload::run_workload(bed, probed, opt);
    const CallLog log = probed.merged();
    const std::string tag = " (" + std::to_string(threads) + " thread)";
    expect(plain_bed.events_processed() == bed.events_processed(),
           "timing and kernel probes add no events" + tag);
    expect(plain.ops == res.ops && plain.p99_latency == res.p99_latency &&
               plain.write_stats.mean == res.write_stats.mean &&
               plain.read_stats.p99 == res.read_stats.p99,
           "probe leaves results unchanged" + tag);
    Report cmp;
    compare_to_workload(cmp, log.window_ns, res, true);
    expect(cmp.checks == 12 && cmp.failed_checks.empty(),
           "per-call samples reproduce every workload histogram" + tag);
    for (const auto& f : cmp.failed_checks) std::printf("     %s\n", f.c_str());
  }
  std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") return selftest();
    if (k == "--traced") {
      a.traced = true;
    } else if (k == "--workload" && i + 1 < argc) {
      a.workload = argv[++i];
    } else if (k == "--seed" && i + 1 < argc) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--threads" && i + 1 < argc) {
      a.threads = std::atoi(argv[++i]);
    } else if (k == "--extra-setups" && i + 1 < argc) {
      a.extra_setups = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", k.c_str());
      return 2;
    }
  }
  try {
    Report r = a.workload == "fleet-100k" ? run_fleet(a) : run_closed(a);
    r.str("compiler", PERFBENCH_COMPILER);
    r.str("build_type", PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", r.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness: %s\n", e.what());
    return 1;
  }
  return 0;
}
