#include "net/rpc.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <utility>

#include "sim/parallel.hpp"

namespace redbud::net {

using redbud::sim::SimFuture;
using redbud::sim::SimPromise;
using redbud::sim::SimTime;

namespace {

// Estimated on-the-wire payload sizes, modelled after typical XDR
// encodings of comparable protocols.
struct ReqSize {
  std::size_t operator()(const CreateReq& r) const { return 48 + r.name.size(); }
  std::size_t operator()(const LookupReq& r) const { return 48 + r.name.size(); }
  std::size_t operator()(const LayoutGetReq&) const { return 64; }
  std::size_t operator()(const CommitReq& r) const {
    std::size_t s = 16;
    for (const auto& e : r.entries) {
      s += 48 + e.extents.size() * 40 + e.block_tokens.size() * 8;
    }
    return s;
  }
  std::size_t operator()(const DelegateReq&) const { return 32; }
  std::size_t operator()(const DelegateReturnReq&) const { return 48; }
  std::size_t operator()(const RemoveReq& r) const { return 48 + r.name.size(); }
  std::size_t operator()(const StatReq&) const { return 32; }
  std::size_t operator()(const NfsWriteReq& r) const { return 96 + r.nbytes; }
  std::size_t operator()(const NfsCommitReq&) const { return 40; }
  std::size_t operator()(const NfsReadReq&) const { return 64; }
  std::size_t operator()(const PvfsIoReq& r) const {
    return 96 + (r.is_write ? r.nbytes : 0);
  }
};

struct RespSize {
  std::size_t operator()(const CreateResp&) const { return 40; }
  std::size_t operator()(const LookupResp&) const { return 48; }
  std::size_t operator()(const LayoutGetResp& r) const {
    return 24 + r.extents.size() * 40;
  }
  std::size_t operator()(const CommitResp&) const { return 32; }
  std::size_t operator()(const DelegateResp&) const { return 48; }
  std::size_t operator()(const RemoveResp&) const { return 24; }
  std::size_t operator()(const StatResp&) const { return 40; }
  std::size_t operator()(const NfsWriteResp&) const { return 40; }
  std::size_t operator()(const NfsCommitResp&) const { return 32; }
  std::size_t operator()(const NfsReadResp& r) const {
    return 48 + r.tokens.size() * storage::kBlockSize;
  }
  std::size_t operator()(const PvfsIoResp& r) const {
    return 48 + r.tokens.size() * storage::kBlockSize;
  }
};

// op_name() per RequestBody alternative, in the variant's declaration
// order (protocol.hpp).
constexpr const char* kOpNames[] = {
    "create",    "lookup",          "layout_get", "commit",
    "delegate",  "delegate_return", "remove",     "stat",
    "nfs_write", "nfs_commit",      "nfs_read",   "pvfs_io"};
static_assert(std::size(kOpNames) == std::variant_size_v<RequestBody>);

}  // namespace

std::size_t wire_size(const RequestBody& body) {
  return std::visit(ReqSize{}, body);
}
std::size_t wire_size(const ResponseBody& body) {
  return std::visit(RespSize{}, body);
}
const char* op_name(const RequestBody& body) {
  return kOpNames[body.index()];
}

RpcEndpoint::RpcEndpoint(redbud::sim::Simulation& sim, Network& net,
                         NodeId node)
    : sim_(&sim), net_(&net), node_(node), incoming_(sim) {
  // Directory entry so a reply can be routed back to this endpoint's
  // partition without the server touching caller state.
  net.register_endpoint(node, this);
}

SimFuture<ResponseBody> RpcEndpoint::call(RpcEndpoint& server,
                                          RequestBody body,
                                          obs::TraceContext ctx) {
  const std::uint64_t xid = next_xid_++;
  const std::size_t bytes = kRpcHeaderBytes + wire_size(body);

  const std::size_t op = body.index();
  SimPromise<ResponseBody> promise(*sim_);
  auto fut = promise.future();
  // The wire span is minted here and carried to the server in the message
  // header; it is recorded once the reply has fully arrived back.
  obs::TraceContext rpc_ctx;
  if (obs_ != nullptr && ctx.active()) rpc_ctx = obs_->tracer.child(ctx);
  pending_.emplace(xid, PendingCall{std::move(promise), sim_->now(), op,
                                    rpc_ctx, ctx.span});

  ++calls_sent_;
  req_bytes_sent_ += bytes;
  auto& st = ops_[op];
  ++st.sent;
  st.bytes_sent += bytes;
  send_request(server, xid, std::move(body), bytes, rpc_ctx, false);
  return fut;
}

void RpcEndpoint::send_request(RpcEndpoint& server, std::uint64_t xid,
                               RequestBody body, std::size_t bytes,
                               obs::TraceContext ctx, bool retryable) {
  net_->deliver(node_, server.node_, bytes,
                [srv = &server, xid, from = node_, body = std::move(body), ctx,
                 retryable]() mutable {
                  srv->receive_request(xid, from, std::move(body), ctx,
                                       retryable);
                });
}

SimFuture<RpcResult> RpcEndpoint::call_retry(RpcEndpoint& server,
                                             RequestBody body,
                                             const RetryPolicy& policy,
                                             obs::TraceContext ctx) {
  REDBUD_REQUIRE(policy.max_attempts >= 1, "retry policy with zero attempts");
  REDBUD_REQUIRE(policy.backoff >= 1.0,
                 "retry backoff must not shrink the timeout");
  // A timeout below the fabric's round-trip floor (which also bounds the
  // parallel domain's lookahead window) would retransmit before any reply
  // could possibly arrive — every call would burn its whole budget.
  REDBUD_REQUIRE(policy.timeout >= net_->min_rtt(),
                 "retry timeout below the network min-RTT/lookahead floor");

  const std::uint64_t xid = next_xid_++;
  SimPromise<RpcResult> promise(*sim_);
  auto fut = promise.future();
  obs::TraceContext rpc_ctx;
  if (obs_ != nullptr && ctx.active()) rpc_ctx = obs_->tracer.child(ctx);
  const std::size_t op = body.index();
  auto [it, inserted] = retry_pending_.emplace(
      xid,
      RetryCall{std::move(promise), sim_->now(), sim_->now(), policy,
                policy.timeout, 1, true, std::move(body), &server, op,
                rpc_ctx, ctx.span});
  assert(inserted);
  transmit(xid, it->second);
  arm_retry_timer(xid, it->second.cur_timeout);
  return fut;
}

SimFuture<RpcResult> RpcEndpoint::call_result(RpcEndpoint& server,
                                              RequestBody body,
                                              obs::TraceContext ctx) {
  const std::uint64_t xid = next_xid_++;
  SimPromise<RpcResult> promise(*sim_);
  auto fut = promise.future();
  obs::TraceContext rpc_ctx;
  if (obs_ != nullptr && ctx.active()) rpc_ctx = obs_->tracer.child(ctx);
  const std::size_t op = body.index();
  auto [it, inserted] = retry_pending_.emplace(
      xid,
      RetryCall{std::move(promise), sim_->now(), sim_->now(), RetryPolicy{},
                redbud::sim::SimTime::zero(), 1, false, std::move(body),
                &server, op, rpc_ctx, ctx.span});
  assert(inserted);
  transmit(xid, it->second);
  return fut;
}

void RpcEndpoint::transmit(std::uint64_t xid, RetryCall& rc) {
  const std::size_t bytes = kRpcHeaderBytes + wire_size(rc.body);
  ++calls_sent_;
  req_bytes_sent_ += bytes;
  auto& st = ops_[rc.op];
  ++st.sent;
  st.bytes_sent += bytes;
  rc.sent_at = sim_->now();
  // A copy: the original stays for retransmission.
  send_request(*rc.server, xid, rc.body, bytes, rc.rpc_ctx, rc.retryable);
}

void RpcEndpoint::arm_retry_timer(std::uint64_t xid,
                                  redbud::sim::SimTime timeout) {
  sim_->call_at(sim_->now() + timeout,
                [this, xid] { on_retry_timeout(xid); });
}

void RpcEndpoint::on_retry_timeout(std::uint64_t xid) {
  // Xids are never reused, so a stale timer (its call completed, maybe
  // even a later one armed) simply misses here.
  auto it = retry_pending_.find(xid);
  if (it == retry_pending_.end()) return;
  RetryCall& rc = it->second;
  if (sim_->now() < rc.sent_at + rc.cur_timeout) return;  // superseded timer
  if (rc.attempts >= rc.policy.max_attempts) {
    ++retries_exhausted_;
    RpcResult out;
    out.ok = false;
    out.attempts = rc.attempts;
    rc.promise.set_value(std::move(out));
    retry_pending_.erase(it);
    return;
  }
  ++rc.attempts;
  ++retries_sent_;
  rc.cur_timeout =
      std::min(rc.cur_timeout * rc.policy.backoff, rc.policy.max_timeout);
  transmit(xid, rc);
  arm_retry_timer(xid, rc.cur_timeout);
}

void RpcEndpoint::receive_request(std::uint64_t xid, NodeId from,
                                  RequestBody body, obs::TraceContext ctx,
                                  bool retryable) {
  if (down_) {
    // Crashed host: the NIC is dark, the request evaporates. The caller's
    // timeout (if any) is the recovery path.
    ++dropped_while_down_;
    return;
  }
  if (retryable) {
    const std::uint64_t key = dedup_key(from, xid);
    if (auto rit = reply_cache_.find(key); rit != reply_cache_.end()) {
      // Already executed and answered: the reply must have been lost (or
      // is still in flight). Retransmit it instead of re-executing.
      ++dup_replies_served_;
      send_response(from, xid, rit->second);
      return;
    }
    if (!inflight_dedup_.insert(key).second) {
      // Still queued or executing; the eventual reply answers both.
      ++dup_requests_dropped_;
      return;
    }
  }
  ++calls_received_;
  ++ops_[body.index()].received;
  const bool ok = incoming_.try_send(
      IncomingRpc{xid, from, std::move(body), ctx, retryable});
  assert(ok);
  (void)ok;
}

void RpcEndpoint::cache_reply(NodeId from, std::uint64_t xid,
                              const ResponseBody& body) {
  const std::uint64_t key = dedup_key(from, xid);
  inflight_dedup_.erase(key);
  if (reply_cache_.emplace(key, body).second) {
    reply_cache_fifo_.push_back(key);
    if (reply_cache_fifo_.size() > kReplyCacheCap) {
      reply_cache_.erase(reply_cache_fifo_.front());
      reply_cache_fifo_.pop_front();
    }
  }
}

void RpcEndpoint::reply(const IncomingRpc& rpc, ResponseBody body) {
  if (down_) {
    // The host died between execute and reply: the response is lost. For
    // retryable requests the retransmit after failover re-executes (the
    // reply cache died with the host) — ops must be idempotent.
    ++dropped_while_down_;
    return;
  }
  if (rpc.retryable) cache_reply(rpc.from, rpc.xid, body);
  send_response(rpc.from, rpc.xid, std::move(body));
}

void RpcEndpoint::send_response(NodeId to, std::uint64_t xid,
                                ResponseBody body) {
  const std::size_t bytes = kRpcHeaderBytes + wire_size(body);
  // Route the response through the endpoint directory: completion runs in
  // the caller's partition at wire arrival.
  RpcEndpoint* peer = net_->endpoint(to);
  assert(peer != nullptr && "reply to an unregistered endpoint");
  net_->deliver(node_, to, bytes,
                [peer, xid, body = std::move(body)]() mutable {
                  peer->complete_call(xid, std::move(body));
                });
}

void RpcEndpoint::complete_call(std::uint64_t xid, ResponseBody body) {
  if (auto it = pending_.find(xid); it != pending_.end()) {
    const SimTime rtt = sim_->now() - it->second.sent_at;
    rtt_.record(rtt);
    ops_[it->second.op].rtt.record(rtt);
    if (obs_ != nullptr && it->second.rpc_ctx.active()) {
      obs_->tracer.record(obs::Stage::kRpcWire, it->second.rpc_ctx,
                          it->second.parent, track_, it->second.sent_at,
                          sim_->now());
    }
    it->second.promise.set_value(std::move(body));
    pending_.erase(it);
    return;
  }
  if (auto it = retry_pending_.find(xid); it != retry_pending_.end()) {
    // RTT of the transmission that got answered — approximated as the
    // latest one (a reply racing a retransmit can bias this low; the
    // per-attempt matching a real XID cache would do is not worth it).
    const SimTime rtt = sim_->now() - it->second.sent_at;
    rtt_.record(rtt);
    ops_[it->second.op].rtt.record(rtt);
    if (obs_ != nullptr && it->second.rpc_ctx.active()) {
      obs_->tracer.record(obs::Stage::kRpcWire, it->second.rpc_ctx,
                          it->second.parent, track_, it->second.first_sent_at,
                          sim_->now());
    }
    RpcResult out;
    out.ok = true;
    out.attempts = it->second.attempts;
    out.body = std::move(body);
    it->second.promise.set_value(std::move(out));
    retry_pending_.erase(it);
    return;
  }
  // Late duplicate: the call already completed (a retransmitted request
  // and its lost-then-found original can both produce replies), or it
  // already resolved ok = false and the caller moved on. Drop it.
  ++late_replies_;
}

void RpcEndpoint::set_down(bool down) {
  down_ = down;
  if (down) {
    // Crash semantics: everything volatile on the host is gone — queued
    // requests that were never pulled, the in-flight dedup set, and the
    // reply cache. Survivors are only what the journal made durable.
    while (incoming_.try_recv().has_value()) {
      ++dropped_while_down_;
    }
    inflight_dedup_.clear();
    reply_cache_.clear();
    reply_cache_fifo_.clear();
  }
}

SimTime RpcEndpoint::mean_rtt() const { return rtt_.mean(); }

std::map<std::string, RpcEndpoint::OpStats> RpcEndpoint::op_stats() const {
  std::map<std::string, OpStats> out;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const OpStats& st = ops_[i];
    if (st.sent == 0 && st.received == 0) continue;
    out.emplace(kOpNames[i], st);
  }
  return out;
}

void RpcEndpoint::dump(std::ostream& out, const std::string& label) const {
  const auto stats = op_stats();
  if (stats.empty()) return;
  out << "per-op RPC stats [" << label << "]\n";
  out << "  " << std::left << std::setw(16) << "op" << std::right
      << std::setw(10) << "sent" << std::setw(10) << "served" << std::setw(14)
      << "bytes_sent" << std::setw(14) << "mean_rtt_us" << std::setw(13)
      << "p99_rtt_us" << "\n";
  for (const auto& [op, st] : stats) {
    out << "  " << std::left << std::setw(16) << op << std::right
        << std::setw(10) << st.sent << std::setw(10) << st.received
        << std::setw(14) << st.bytes_sent;
    if (st.rtt.count() > 0) {
      out << std::setw(14) << std::fixed << std::setprecision(1)
          << st.rtt.mean().to_micros() << std::setw(13)
          << st.rtt.percentile(99).to_micros();
    } else {
      out << std::setw(14) << "-" << std::setw(13) << "-";
    }
    out << "\n";
  }
  out.flush();
}

}  // namespace redbud::net
