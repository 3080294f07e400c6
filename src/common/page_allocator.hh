/**
 * @file
 * PageAllocator: a std::allocator replacement that maps each
 * allocation straight from the OS (anonymous mmap) and unmaps it on
 * release.
 *
 * It is for reserve-once buffers sized for a worst case that a run
 * mostly never touches, such as the directory's L2 tags and entries.
 * Such a reservation costs address space only if its pages are
 * fresh. glibc malloc does not promise that: once it has freed an
 * mmapped chunk it raises its mmap threshold to that chunk's size and
 * serves later requests of that size from the heap, so the next
 * System's reservation lands on pages an earlier System already
 * dirtied. Peak RSS then depends on where the heap happens to place
 * each reservation, and moves with unrelated object-size changes.
 * Mapping the pages directly keeps resident memory equal to the pages
 * the run touches.
 */

#ifndef PROTOZOA_COMMON_PAGE_ALLOCATOR_HH
#define PROTOZOA_COMMON_PAGE_ALLOCATOR_HH

#include <sys/mman.h>

#include <cstddef>
#include <limits>
#include <new>

namespace protozoa {

template <typename T>
struct PageAllocator
{
    static_assert(alignof(T) <= 4096, "mmap aligns to pages only");

    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
            throw std::bad_array_new_length();
        void *p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        munmap(p, n * sizeof(T));
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

} // namespace protozoa

#endif // PROTOZOA_COMMON_PAGE_ALLOCATOR_HH
