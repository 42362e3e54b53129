#include "alloc_hook.hpp"

#include <malloc.h>

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_alloc_count = 0;
std::int64_t g_live_bytes = 0;

void* counted_malloc(std::size_t size) {
  ++g_alloc_count;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes += static_cast<std::int64_t>(malloc_usable_size(p));
  return p;
}

void counted_free(void* p) noexcept {
  g_live_bytes -= static_cast<std::int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

std::uint64_t amac::testutil::alloc_count() { return g_alloc_count; }
std::int64_t amac::testutil::live_bytes() { return g_live_bytes; }

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
