/**
 * @file
 * Process-wide heap-allocation counter.
 *
 * heap_counter.cc replaces the global operator new family with
 * counting wrappers around malloc. It is not part of wisync_core:
 * only the unit tests, which assert "zero allocations on this path",
 * link it, and they sample heapAllocs() strictly around the code
 * under test.
 */

#ifndef WISYNC_SIM_HEAP_COUNTER_HH
#define WISYNC_SIM_HEAP_COUNTER_HH

#include <cstdint>

namespace wisync::sim {

/** operator new calls (every form) made by this process so far. */
std::uint64_t heapAllocs();

} // namespace wisync::sim

#endif // WISYNC_SIM_HEAP_COUNTER_HH
