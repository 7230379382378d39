#include "sim/heap_counter.hh"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_heapAllocs{0};

void *
countedAlloc(std::size_t bytes, std::size_t align)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    void *p = nullptr;
    if (align <= alignof(std::max_align_t))
        p = std::malloc(bytes);
    else if (posix_memalign(&p, align, bytes) != 0)
        p = nullptr;
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

std::uint64_t
wisync::sim::heapAllocs()
{
    return g_heapAllocs.load(std::memory_order_relaxed);
}

void *
operator new(std::size_t bytes)
{
    return countedAlloc(bytes, alignof(std::max_align_t));
}

void *
operator new[](std::size_t bytes)
{
    return countedAlloc(bytes, alignof(std::max_align_t));
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    return countedAlloc(bytes, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return countedAlloc(bytes, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

// The nothrow forms too: the library pairs them with the plain
// deletes above (std::get_temporary_buffer does), so every new must
// come from the same malloc.
void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(bytes, alignof(std::max_align_t));
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return ::operator new(bytes, std::nothrow);
}

void *
operator new(std::size_t bytes, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(bytes, static_cast<std::size_t>(align));
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t bytes, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return ::operator new(bytes, align, std::nothrow);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t, const std::nothrow_t &) noexcept
{
    std::free(p);
}
