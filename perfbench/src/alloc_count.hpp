// Process-wide heap-allocation count (see alloc_count.cpp).
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Turn counting on or off. Off by default; only the traced run enables it.
void set_counting(bool on);

/// Allocations counted so far, summed over every thread.
std::uint64_t total();

}  // namespace perfbench::alloc
