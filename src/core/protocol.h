// The strategy interface the Engine drives. All four systems share the same
// message plumbing (TTL, GUID dedup, reverse-path responses — Engine's job)
// and differ in three decisions:
//   1. which neighbors receive a forwarded query        (ForwardTargets)
//   2. who caches a passing response, and how           (ObserveResponse)
//   3. how a node answers from its response index       (AnswerFromIndex)
// plus periodic maintenance (Locaware's Bloom gossip) and link-lifecycle
// hooks (filter exchange on new links).
#pragma once

#include <memory>
#include <vector>

#include "common/small_vector.h"
#include "common/types.h"
#include "core/protocol_params.h"
#include "overlay/message.h"

namespace locaware::core {

class Engine;

/// Forwarding target lists: bounded by a node's degree (typical overlay
/// degree is a handful) or the routed protocols' fallback fanout. Inline so
/// the per-delivery forwarding decision does not allocate.
using PeerVec = SmallVector<PeerId, 8>;

/// Group lists the routed protocols hash toward: one group for Dicas, one
/// per distinct query keyword for Dicas-Keys (K <= 3 by default).
using GroupVec = SmallVector<GroupId, 4>;

/// \brief Per-protocol behaviour. Stateless apart from the params copy; all
/// mutable state lives in the Engine's NodeState array.
class Protocol {
 public:
  explicit Protocol(const ProtocolParams& params) : params_(params) {}
  virtual ~Protocol() = default;

  virtual ProtocolKind kind() const = 0;
  virtual const char* name() const = 0;

  /// Neighbors of `node` that should receive `query`, never including
  /// `from` (the neighbor it arrived from; kInvalidPeer at the origin).
  virtual PeerVec ForwardTargets(Engine& engine, PeerId node,
                                 const overlay::QueryMessage& query,
                                 PeerId from) = 0;

  /// Called at every reverse-path hop (including the requester) with a
  /// passing response; implements each protocol's caching rule.
  virtual void ObserveResponse(Engine& engine, PeerId node,
                               const overlay::ResponseMessage& response) = 0;

  /// Attempts to answer `query` from `node`'s response index. Returns the
  /// records to send back (empty = no index answer). May mutate the index
  /// (Locaware appends the requester as a new provider, §4.1.2).
  virtual overlay::RecordVec AnswerFromIndex(
      Engine& engine, PeerId node, const overlay::QueryMessage& query) = 0;

  /// Whether a node that answered keeps forwarding the query. Flooding does
  /// (Gnutella semantics); the routed protocols stop on hit ("propagated
  /// until a satisfying file is found", §4.2).
  virtual bool ForwardAfterHit() const { return false; }

  /// A query left its origin without a local answer. The DHT protocol uses
  /// this to start its lookup; default ignores. Runs on the origin's shard,
  /// right after the forward fan-out was scheduled.
  virtual void OnQuerySubmitted(Engine& engine, const overlay::QueryMessage& query);

  /// A maintenance tick at `node`: every interval under churn, for the DHT
  /// or with an index TTL; on a static overlay without TTL only Locaware
  /// ticks, once its counting filter changed. Base implementation expires
  /// stale index entries (Dicas and Dicas-Keys under churn or TTL; the DHT
  /// has no index); Locaware additionally syncs its Bloom filter and gossips
  /// deltas.
  virtual void OnMaintenanceTick(Engine& engine, PeerId node);

  /// Bloom-update delivery (Locaware only; default ignores).
  virtual void OnBloomUpdate(Engine& engine, PeerId node,
                             const overlay::BloomUpdateMessage& update);

  /// A link appeared (static setup path). Touches both endpoints at once, so
  /// it is only legal outside partitioned churn runs; the message-routed
  /// churn path uses OnNeighborUp/OnPeerDeparted instead. Locaware exchanges
  /// full filters and Gids on new links.
  virtual void OnLinkUp(Engine& engine, PeerId a, PeerId b);

  /// One endpoint of a repaired link learned of its new neighbor through a
  /// LinkProbe/LinkAccept message (executing on `node`'s shard). `peer` is
  /// the remote side's announce; only `node`'s state may be mutated.
  virtual void OnNeighborUp(Engine& engine, PeerId node,
                            const overlay::LinkAnnounce& peer);

  /// `node` received `departed`'s LinkDrop: the neighbor left the network.
  /// Base implementation invalidates every response-index entry naming the
  /// departed peer as a provider; Locaware additionally mirrors the removals
  /// into its counting Bloom filter so the next maintenance tick gossips the
  /// delta (the existing counting-Bloom invalidation path).
  virtual void OnPeerDeparted(Engine& engine, PeerId node, PeerId departed);

  /// Provider-selection default when the config leaves it unset.
  virtual SelectionStrategy DefaultSelection() const {
    return SelectionStrategy::kRandom;
  }

  const ProtocolParams& params() const { return params_; }

 protected:
  ProtocolParams params_;
};

/// Builds the protocol implementation for `kind`.
std::unique_ptr<Protocol> MakeProtocol(ProtocolKind kind, const ProtocolParams& params);

}  // namespace locaware::core
