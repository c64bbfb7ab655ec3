// Layer microkernels of craft-bench: each drives one layer's public API
// directly and reports a unit cost in host nanoseconds per operation.
#pragma once

#include <cstdint>

namespace craftbench {

/// Runs every microkernel seven times in a seed-shuffled interleaved order
/// and prints one craft-bench-layers-v1 JSON line: per kernel the minimum
/// over repetitions and its noise floor, (median - min) / min in percent.
int RunLayers(std::uint64_t seed);

}  // namespace craftbench
