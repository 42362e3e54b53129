// Allocation counting for the allocation-pin test binaries
// (test_mac_event_core, test_log_allocs, test_wpaxos_allocs). Each links
// alloc_hook.cpp once, which replaces the global operator new / delete
// family with counting malloc / free wrappers. The replacements live in
// their own translation unit, so no test sees both a new-expression and
// the free() behind its delete.
#pragma once

#include <cstdint>

namespace amac::testutil {

/// Global operator new calls (scalar and array) since the binary started.
[[nodiscard]] std::uint64_t alloc_count();

}  // namespace amac::testutil
