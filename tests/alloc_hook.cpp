#include "alloc_hook.hpp"

#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_alloc_count = 0;
}  // namespace

std::uint64_t amac::testutil::alloc_count() { return g_alloc_count; }

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
