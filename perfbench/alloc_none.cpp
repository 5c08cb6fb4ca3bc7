// Linked into the end-to-end binary: no allocation counting.
#include "perfbench/bench.hpp"

namespace perfbench {
const bool kTracedBinary = false;
std::uint64_t allocations() { return 0; }
}  // namespace perfbench
