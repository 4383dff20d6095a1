#include "core/dht_protocol.h"

#include "core/engine.h"

namespace locaware::core {

PeerVec DhtProtocol::ForwardTargets(Engine& /*engine*/, PeerId /*node*/,
                                    const overlay::QueryMessage& /*query*/,
                                    PeerId /*from*/) {
  return {};
}

void DhtProtocol::ObserveResponse(Engine& /*engine*/, PeerId /*node*/,
                                  const overlay::ResponseMessage& /*response*/) {}

overlay::RecordVec DhtProtocol::AnswerFromIndex(Engine& /*engine*/, PeerId /*node*/,
                                                const overlay::QueryMessage& /*query*/) {
  return {};
}

void DhtProtocol::OnQuerySubmitted(Engine& engine, const overlay::QueryMessage& query) {
  engine.StartDhtQueryLookup(query);
}

}  // namespace locaware::core
