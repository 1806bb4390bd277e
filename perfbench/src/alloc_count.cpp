// Exact heap-allocation counter: replaces the global operator new family in
// the benchmark executable, so every allocation the program makes in this
// process passes through here. Counting is off unless the traced run turns
// it on; then each thread bumps its own cache-line-padded slot, so lanes do
// not contend on one counter.
#include "alloc_count.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::alloc {

namespace {

constexpr unsigned kSlots = 64;

struct alignas(64) Slot {
  std::atomic<std::uint64_t> n{0};
};

std::atomic<bool> g_on{false};
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};
// Constant-initialised, so touching it from inside operator new never
// allocates. Threads beyond kSlots share slots (still exact: the adds are
// atomic).
thread_local unsigned tl_slot = kSlots;

void count() {
  if (!g_on.load(std::memory_order_relaxed)) return;
  if (tl_slot == kSlots) tl_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  g_slots[tl_slot].n.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t size) {
  count();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  count();
  void* p = nullptr;
  const auto a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, size == 0 ? 1 : size) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_counting(bool on) { g_on.store(on, std::memory_order_relaxed); }

std::uint64_t total() {
  std::uint64_t sum = 0;
  for (const auto& s : g_slots) sum += s.n.load(std::memory_order_relaxed);
  return sum;
}

}  // namespace perfbench::alloc

using perfbench::alloc::allocate;
using perfbench::alloc::allocate_aligned;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, std::align_val_t al) { return allocate_aligned(size, al); }
void* operator new[](std::size_t size, std::align_val_t al) { return allocate_aligned(size, al); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
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
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
