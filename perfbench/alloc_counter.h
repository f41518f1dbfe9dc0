// Heap allocations made through the global operator new since the process
// started. The counting operator new lives in alloc_counter.cc; any binary
// that calls HeapAllocations links it in.

#ifndef PERFBENCH_ALLOC_COUNTER_H_
#define PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

uint64_t HeapAllocations();

}  // namespace perfbench

#endif  // PERFBENCH_ALLOC_COUNTER_H_
