// Order- and rotation-free digest of an enumeration's cycle set, shared by
// the suites that compare parallel runs against a reference.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "core/cycle_types.hpp"
#include "support/prng.hpp"

namespace parcycle {

// Cycle count plus a sum of per-cycle hashes of the edge ids. Both sums are
// commutative, so the digest depends neither on the order cycles arrive in
// nor on the rotation a cycle is reported in; unlike collecting and sorting
// every cycle it allocates nothing per cycle.
class DigestSink final : public CycleSink {
 public:
  struct Digest {
    std::uint64_t cycles = 0;
    std::uint64_t checksum = 0;
    bool operator==(const Digest&) const = default;
  };

  void on_cycle(std::span<const VertexId>,
                std::span<const EdgeId> edges) override {
    std::uint64_t hash = edges.size();
    for (const EdgeId e : edges) {
      hash += SplitMix64(e).next();
    }
    cycles_.fetch_add(1, std::memory_order_relaxed);
    checksum_.fetch_add(SplitMix64(hash).next(), std::memory_order_relaxed);
  }

  // Call once the enumeration has returned.
  Digest digest() const {
    return {cycles_.load(std::memory_order_relaxed),
            checksum_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> checksum_{0};
};

}  // namespace parcycle
