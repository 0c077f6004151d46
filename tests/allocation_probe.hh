/**
 * @file
 * Global allocation probe for a test binary: replaces every form of
 * operator new and delete, and counts each allocation in
 * g_allocation_count. Assertions snapshot the counter around a
 * measured region; the replacement itself never allocates. The
 * nothrow forms are replaced too (std::stable_sort's buffer uses
 * them), so that under AddressSanitizer every block is freed by the
 * allocator that made it.
 *
 * Include it from exactly one translation unit of a binary: the
 * replacements are program-wide definitions.
 */

#ifndef QUEST_TESTS_ALLOCATION_PROBE_HH
#define QUEST_TESTS_ALLOCATION_PROBE_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> g_allocation_count{0};
}

[[gnu::noinline]] void *
operator new(std::size_t n, const std::nothrow_t &) noexcept
{
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n ? n : 1);
}

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    if (void *p = operator new(n, std::nothrow))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t n)
{
    return operator new(n);
}

[[gnu::noinline]] void *
operator new[](std::size_t n, const std::nothrow_t &) noexcept
{
    return operator new(n, std::nothrow);
}

[[gnu::noinline]] void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // QUEST_TESTS_ALLOCATION_PROBE_HH
