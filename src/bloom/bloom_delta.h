// Incremental Bloom-filter updates.
//
// Paper §4.2 (footnote 1): when a filename is added or removed, only a few
// bits of the 1200-bit vector change, so a peer transmits just the *positions*
// of changed bits — each position costs ceil(log2(m)) = 11 bits, and one
// filename touches at most k·keywords ≈ 12 bits, i.e. ≤ 0.132 Kb per update.
// A sender gets the positions from CountingBloomFilter::SyncProjection; this
// module applies them at the receiver and charges their wire size.
#pragma once

#include <cstdint>
#include <span>

#include "bloom/bloom_filter.h"
#include "common/status.h"

namespace locaware::bloom {

/// Toggles `positions` of an m = `filter_bits` filter in place, for callers
/// whose positions arrive in a message-owned container
/// (BloomUpdateMessage::toggled_positions). Fails with InvalidArgument, and
/// changes nothing, if the width does not match `filter` or a position is out
/// of range (a corrupt message must not crash a peer).
Status ApplyDelta(uint32_t filter_bits, std::span<const uint32_t> positions,
                  BloomFilter* filter);

/// Bits needed to encode one position for an m-bit filter: ceil(log2(m)).
size_t PositionBits(size_t filter_bits);

/// Wire size of an update in bits: 16-bit count header + count *
/// PositionBits. This is the quantity charged to the bandwidth metric.
size_t WireSizeBits(size_t filter_bits, size_t num_positions);

}  // namespace locaware::bloom
