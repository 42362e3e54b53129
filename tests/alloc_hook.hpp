// Allocation counting for the allocation-pin test binaries
// (test_mac_event_core, test_log_allocs, test_wpaxos_allocs). Each links
// alloc_hook.cpp once, which replaces the global operator new / delete
// family with counting malloc / free wrappers. The wrappers also keep the
// bytes currently held through them, as malloc_usable_size reports each
// block, so a test can pin what a finished object retains. The replacements live in
// their own translation unit, so no test sees both a new-expression and
// the free() behind its delete.
#pragma once

#include <cstdint>

namespace amac::testutil {

/// Global operator new calls (scalar and array) since the binary started.
[[nodiscard]] std::uint64_t alloc_count();

/// Usable bytes of the blocks global operator new handed out and operator
/// delete has not yet freed.
[[nodiscard]] std::int64_t live_bytes();

}  // namespace amac::testutil
