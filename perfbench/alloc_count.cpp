// Linked into perfbench_traced only: counts every heap allocation by
// replacing the global operator new, for the per-layer allocation
// metrics. The end-to-end binary links alloc_none.cpp instead and keeps
// the standard allocator untouched.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "perfbench/bench.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size ? size : 1);
    } else if (posix_memalign(&p, align, size ? size : 1) != 0) {
        p = nullptr;
    }
    if (p == nullptr) throw std::bad_alloc();
    return p;
}
}  // namespace

namespace perfbench {
const bool kTracedBinary = true;
std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
