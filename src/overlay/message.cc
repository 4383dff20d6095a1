#include "overlay/message.h"

#include "bloom/bloom_delta.h"

namespace locaware::overlay {

namespace {
constexpr size_t kDescriptorHeader = 23;  // Gnutella 0.4 header
constexpr size_t kAddress = 6;            // IPv4 + port
constexpr size_t kLocId = 1;              // 24 locIds fit a byte
}  // namespace

size_t EstimateSizeBytes(const QueryMessage& m, const WireNames& names) {
  size_t bytes = kDescriptorHeader + kAddress + kLocId + 2;  // origin + loc + ttl/hops
  for (KeywordId kw : m.keywords) bytes += names.KeywordWireBytes(kw) + 1;
  return bytes;
}

size_t EstimateSizeBytes(const ResponseMessage& m, const WireNames& names) {
  size_t bytes = kDescriptorHeader + 2 * kAddress + kLocId + 1;
  for (KeywordId kw : m.query_keywords) bytes += names.KeywordWireBytes(kw) + 1;
  for (const ResponseRecord& r : m.records) {
    bytes += names.FilenameWireBytes(r.file) + 1;
    bytes += r.providers.size() * (kAddress + kLocId);
  }
  return bytes;
}

size_t EstimateSizeBytes(const BloomUpdateMessage& m) {
  // Header + the delta wire format from bloom/bloom_delta.h (16-bit count +
  // ceil(log2(m)) bits per changed position — the paper's 0.132 Kb bound).
  const size_t delta_bits =
      bloom::WireSizeBits(m.filter_bits, m.toggled_positions.size());
  return kDescriptorHeader + kAddress + (delta_bits + 7) / 8;
}

size_t EstimateSizeBytes(const ProbeMessage& /*m*/) {
  return kDescriptorHeader + 2 * kAddress;
}

namespace {
/// Address + gid + epoch + degree hint, plus the full filter bitmap when the
/// announce carries one (link establishment is the one place Locaware ships a
/// whole filter; deltas take over afterwards).
size_t AnnounceBytes(const LinkAnnounce& a) {
  size_t bytes = kAddress + 2 + 4 + 2;
  if (a.filter.has_value()) bytes += 4 + (a.filter->num_bits() + 7) / 8;
  return bytes;
}
}  // namespace

size_t EstimateSizeBytes(const LinkDropMessage& /*m*/) {
  return kDescriptorHeader + kAddress + 4;  // sender + ending epoch
}

size_t EstimateSizeBytes(const LinkProbeMessage& m) {
  return kDescriptorHeader + AnnounceBytes(m.from);
}

size_t EstimateSizeBytes(const LinkAcceptMessage& m) {
  return kDescriptorHeader + AnnounceBytes(m.from) + 4;  // + echoed epoch
}

size_t EstimateSizeBytes(const DhtLookupMessage& m, const WireNames& names) {
  // initiator + epoch + keyword + one byte for the hop count and the owner
  // bit; the query id rides in the descriptor header's GUID.
  return kDescriptorHeader + kAddress + 4 + names.KeywordWireBytes(m.kw) + 1 + 1;
}

size_t EstimateSizeBytes(const DhtResponseMessage& m, const WireNames& names) {
  // responder + echoed epoch + hop count, then records like a ResponseMessage.
  size_t bytes = kDescriptorHeader + kAddress + 4 + 1;
  for (const ResponseRecord& r : m.records) {
    bytes += names.FilenameWireBytes(r.file) + 1;
    bytes += r.providers.size() * (kAddress + kLocId);
  }
  return bytes;
}

size_t EstimateSizeBytes(const DhtStoreMessage& m, const WireNames& names) {
  // publisher + epoch + keyword + filename + the provider record + one byte
  // for the hop count and the owner bit.
  return kDescriptorHeader + kAddress + 4 + names.KeywordWireBytes(m.kw) + 1 +
         names.FilenameWireBytes(m.file) + 1 + (kAddress + kLocId) + 1;
}

}  // namespace locaware::overlay
