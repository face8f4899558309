#include "core/async_mis.hpp"

namespace dmis::core {

AsyncMisProtocol::Local& AsyncMisProtocol::local(NodeId v) {
  DMIS_ASSERT_MSG(v < nodes_.size() && nodes_[v].exists, "no such async node");
  return nodes_[v];
}

void AsyncMisProtocol::create_node(NodeId v, std::uint64_t key, bool in_mis) {
  if (nodes_.size() <= v) nodes_.resize(static_cast<std::size_t>(v) + 1);
  DMIS_ASSERT(!nodes_[v].exists);
  Local& fresh = nodes_[v];
  fresh = Local{};
  fresh.exists = true;
  fresh.key = key;
  fresh.in_mis = in_mis;
  fresh.epoch = epoch_;
  fresh.epoch_origin = in_mis;
}

void AsyncMisProtocol::destroy_node(NodeId v) { local(v) = Local{}; }

void AsyncMisProtocol::learn_neighbor(NodeId v, NodeId u, std::uint64_t key,
                                      bool in_mis) {
  NeighborRecord& rec = local(v).view.upsert(u);
  rec.key = key;
  rec.state = in_mis ? 1 : 0;
}

void AsyncMisProtocol::forget_neighbor(NodeId v, NodeId u) { local(v).view.erase(u); }

void AsyncMisProtocol::begin_change() {
  ++epoch_;
  adjustments_ = 0;
}

bool AsyncMisProtocol::in_mis(NodeId v) const {
  return v < nodes_.size() && nodes_[v].exists && nodes_[v].in_mis;
}

bool AsyncMisProtocol::wants_mis(const Local& me, NodeId my_id) const {
  for (const NeighborRecord& info : me.view)
    if (info.state != 0 && priority_before(info.key, info.id, me.key, my_id))
      return false;
  return true;
}

void AsyncMisProtocol::set_state(Local& me, bool wants) {
  if (me.epoch != epoch_) {
    me.epoch = epoch_;
    me.epoch_origin = me.in_mis;
    me.counted = false;
  }
  me.in_mis = wants;
  // A flip away from the epoch origin counts; a later flip back un-counts,
  // so transient relaxation flips cancel out of the adjustment measure.
  if (wants != me.epoch_origin && !me.counted) {
    me.counted = true;
    ++adjustments_;
  } else if (wants == me.epoch_origin && me.counted) {
    me.counted = false;
    --adjustments_;
  }
}

void AsyncMisProtocol::reevaluate(NodeId v, sim::AsyncNetwork& net) {
  Local& me = local(v);
  if (me.awaiting_hellos > 0) return;  // §4.1: wait for all introductions
  const bool wants = wants_mis(me, v);
  if (wants == me.in_mis) return;
  set_state(me, wants);
  net.broadcast(v, {kAState, 0, wants ? 1ULL : 0ULL}, sim::kStateBits);
}

void AsyncMisProtocol::on_message(NodeId v, const sim::Delivery& d,
                                  sim::AsyncNetwork& net) {
  if (v >= nodes_.size() || !nodes_[v].exists) return;
  Local& me = nodes_[v];
  switch (d.msg.kind) {
    case kAHello: {
      // Introduction that requests a reply (a joining node's announcement).
      NeighborRecord& rec = me.view.upsert(d.from);
      rec.key = d.msg.a;
      rec.state = d.msg.b != 0 ? 1 : 0;
      net.broadcast(v, {kAHelloReply, me.key, me.in_mis ? 1ULL : 0ULL},
                    sim::kLogNBits);
      reevaluate(v, net);
      break;
    }
    case kAHelloReply: {
      NeighborRecord& rec = me.view.upsert(d.from);
      rec.key = d.msg.a;
      rec.state = d.msg.b != 0 ? 1 : 0;
      if (me.awaiting_hellos > 0) --me.awaiting_hellos;
      reevaluate(v, net);
      break;
    }
    case kAState: {
      NeighborRecord* rec = me.view.find(d.from);
      if (rec == nullptr) break;  // stale sender
      rec->state = d.msg.b != 0 ? 1 : 0;
      reevaluate(v, net);
      break;
    }
    case kASysEdgeNew: {
      // Both endpoints announce themselves; no reply needed — the peer's own
      // announcement carries its information.
      net.broadcast(v, {kAHelloReply, me.key, me.in_mis ? 1ULL : 0ULL},
                    sim::kLogNBits);
      break;
    }
    case kASysEdgeGone:
    case kASysRetired: {
      me.view.erase(d.from);
      reevaluate(v, net);
      break;
    }
    case kASysJoin: {
      me.awaiting_hellos = d.msg.a;
      if (me.awaiting_hellos == 0) {
        reevaluate(v, net);  // isolated node: joins the MIS immediately
      } else {
        net.broadcast(v, {kAHello, me.key, me.in_mis ? 1ULL : 0ULL}, sim::kLogNBits);
      }
      break;
    }
    case kASysUnmute: {
      // View was granted (the node listened while muted): settle directly
      // and announce presence + final state in one broadcast.
      set_state(me, wants_mis(me, v));
      net.broadcast(v, {kAHelloReply, me.key, me.in_mis ? 1ULL : 0ULL},
                    sim::kLogNBits);
      break;
    }
    default:
      DMIS_ASSERT_MSG(false, "unknown async message kind");
  }
}

AsyncMis::ChangeResult AsyncMis::insert_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(logical_.add_edge(u, v));
  net_.comm().add_edge(u, v);
  net_.inject(u, v, {kASysEdgeNew, 0, 0});
  net_.inject(v, u, {kASysEdgeNew, 0, 0});
  return run_change();
}

AsyncMis::ChangeResult AsyncMis::remove_edge(NodeId u, NodeId v) {
  DMIS_ASSERT(logical_.remove_edge(u, v));
  net_.comm().remove_edge(u, v);
  net_.inject(u, v, {kASysEdgeGone, 0, 0});
  net_.inject(v, u, {kASysEdgeGone, 0, 0});
  return run_change();
}

AsyncMis::ChangeResult AsyncMis::insert_node(std::span<const NodeId> neighbors) {
  const NodeId v = materialize_node(neighbors);
  net_.inject(v, v, {kASysJoin, neighbors.size(), 0});
  return run_change(v);
}

AsyncMis::ChangeResult AsyncMis::unmute_node(std::span<const NodeId> neighbors) {
  const NodeId v = materialize_node(neighbors);
  for (const NodeId u : neighbors)
    protocol_.learn_neighbor(v, u, priorities_.key(u), protocol_.in_mis(u));
  net_.inject(v, v, {kASysUnmute, 0, 0});
  return run_change(v);
}

AsyncMis::ChangeResult AsyncMis::remove_node(NodeId v) {
  DMIS_ASSERT(logical_.has_node(v));
  // Injections only queue events, so they are issued off the live neighbor
  // span before the node is dropped from either graph.
  for (const NodeId u : logical_.neighbors(v)) net_.inject(u, v, {kASysRetired, 0, 0});
  logical_.remove_node(v);
  net_.comm().remove_node(v);
  protocol_.destroy_node(v);
  return run_change();
}

}  // namespace dmis::core
