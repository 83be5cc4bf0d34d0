// The host gauge: fixed work, independent of the library, whose CPU time
// reads how fast the host runs the stack's kind of code at that moment.
#include <cstdint>

#include "bench.hpp"

namespace stackbench {

namespace {

// About 9 MB together: past a core's 2 MB L2, so like the stack's own
// working set it lives in the shared L3 that other tenants contend for.
constexpr std::uint32_t kTreeKeys = 1u << 16;
constexpr std::uint32_t kTableKeys = 1u << 17;
constexpr int kStepsPerSlice = 100;

}  // namespace

HostGauge::HostGauge() {
  for (std::uint32_t i = 0; i < kTreeKeys; ++i) tree_.emplace(next(), i);
  table_.reserve(kTableKeys);
  for (std::uint32_t i = 0; i < kTableKeys; ++i) table_.emplace(i, i);
}

std::uint64_t HostGauge::next() {
  x_ ^= x_ << 13;
  x_ ^= x_ >> 7;
  x_ ^= x_ << 17;
  return x_;
}

double HostGauge::slice() {
  // Per step: an ordered-map search, a node freed and one allocated (the
  // tree keeps its size), and a hash-map update.
  const double c0 = cpu_seconds();
  for (int i = 0; i < kStepsPerSlice; ++i) {
    const std::uint64_t k = next();
    auto it = tree_.lower_bound(k);
    if (it == tree_.end()) it = tree_.begin();
    const std::uint64_t value = it->second + k;
    tree_.erase(it);
    tree_.emplace(next(), value);
    table_[(value >> 7) % kTableKeys] += value;
  }
  return cpu_seconds() - c0;
}

}  // namespace stackbench
