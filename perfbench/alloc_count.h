#ifndef HDB_PERFBENCH_ALLOC_COUNT_H_
#define HDB_PERFBENCH_ALLOC_COUNT_H_

// Heap-allocation counting: this binary replaces the global operator new,
// and while counting is on every allocation in the process (any thread)
// adds one to a shared counter.

#include <cstdint>

namespace perfbench::allocs {

void SetCounting(bool on);
uint64_t Count();

}  // namespace perfbench::allocs

#endif  // HDB_PERFBENCH_ALLOC_COUNT_H_
