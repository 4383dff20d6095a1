// Pure structured search (PR 10): every query resolves through the Chord
// keyword->provider DHT (src/dht/), no unstructured forwarding and no
// response index. The contrast protocol for the popularity-skew ablation —
// O(log n) hops regardless of popularity, at the price of publish traffic
// and churn-window losses.
#pragma once

#include "core/protocol.h"

namespace locaware::core {

class DhtProtocol final : public Protocol {
 public:
  using Protocol::Protocol;

  ProtocolKind kind() const override { return ProtocolKind::kDht; }
  const char* name() const override { return "DHT"; }

  /// No unstructured forwarding: queries never travel overlay links.
  PeerVec ForwardTargets(Engine& engine, PeerId node,
                         const overlay::QueryMessage& query, PeerId from) override;
  /// No cache to feed.
  void ObserveResponse(Engine& engine, PeerId node,
                       const overlay::ResponseMessage& response) override;
  /// No index to answer from.
  overlay::RecordVec AnswerFromIndex(Engine& engine, PeerId node,
                                     const overlay::QueryMessage& query) override;

  /// Every submitted query starts a recursive DHT lookup on its routing
  /// keyword.
  void OnQuerySubmitted(Engine& engine, const overlay::QueryMessage& query) override;

  /// Location-oblivious structured baseline.
  SelectionStrategy DefaultSelection() const override {
    return SelectionStrategy::kRandom;
  }
};

}  // namespace locaware::core
