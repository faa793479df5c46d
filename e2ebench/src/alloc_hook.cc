/**
 * @file
 * Counting global operator new/delete, linked only into the benchmark
 * binary. While a span is open, each allocation is charged to the
 * innermost span (tracer.h): that is how per-layer allocation metrics
 * are measured without relying on the program's own hand-placed meters.
 */
#include <cstdlib>
#include <new>

#include "tracer.h"

void *
operator new(std::size_t n)
{
    if (e2e::g_alloc_sink != nullptr) {
        e2e::g_alloc_sink->allocs++;
        e2e::g_alloc_sink->bytes += n;
    }
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
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
