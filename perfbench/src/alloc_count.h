// Process-wide heap-allocation counter behind common.allocs_per_event. The
// operator-new override that feeds it is linked into the benchmark binary
// only, so the count covers every thread of that process and nothing else.
#pragma once

#include <cstdint>

namespace perfbench {

/// Calls to the global operator new so far.
uint64_t AllocCount();

}  // namespace perfbench
