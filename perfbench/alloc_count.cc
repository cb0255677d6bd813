#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::allocs {

namespace {
std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_count{0};
}  // namespace

void SetCounting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
uint64_t Count() { return g_count.load(std::memory_order_relaxed); }

namespace {

void* Allocate(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  for (;;) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* AllocateAligned(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t align = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = (n + align - 1) / align * align;
  for (;;) {
    if (void* p = std::aligned_alloc(align, size == 0 ? align : size)) {
      return p;
    }
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

}  // namespace
}  // namespace perfbench::allocs

using perfbench::allocs::Allocate;
using perfbench::allocs::AllocateAligned;

void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return AllocateAligned(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return Allocate(n);
  } catch (...) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
