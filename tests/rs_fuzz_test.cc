// Seeded-RNG fuzz of the Reed-Solomon erasure path: encode -> random erasure
// pattern -> decode, with k, r, survivor count, and packet size all
// randomized, under a randomly chosen GF(256) kernel backend per iteration.
// Parity comes from the test-side reference encoder (coding_reference.h);
// the decoder is the production one, ReedSolomon::decode_into, asked for
// every data position.
//
// Invariants pinned per round-trip:
//   - whenever >= k shards survive (any mix of data and parity, in any
//     order), decode_into rebuilds exactly the original payloads, byte for
//     byte;
//   - whenever fewer than k shards survive, decode_into returns false — it
//     must fail loudly, never fabricate plausible-looking garbage.
//
// The seed is fixed so a failure reproduces exactly; the iteration index of
// a failing case is part of the assertion message.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fec/gf256_simd.h"
#include "fec/reed_solomon.h"
#include "coding_reference.h"
#include "test_guards.h"

namespace jqos::fec {
namespace {

TEST(RsFuzz, RandomizedEncodeEraseDecodeRoundTrips) {
  // Restores the entry backend even when an ASSERT aborts mid-fuzz.
  const jqos::testing::GfBackendGuard guard;
  constexpr int kIterations = 1000;
  Rng rng(0xf022ed5eed);
  const auto backends = gf_available_backends();

  for (int iter = 0; iter < kIterations; ++iter) {
    gf_set_backend(backends[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(backends.size()) - 1))]);

    const std::size_t k = static_cast<std::size_t>(rng.uniform_int(1, 20));
    const std::size_t r = static_cast<std::size_t>(rng.uniform_int(0, 10));
    // Mostly realistic packet sizes, with occasional tiny/empty shards to
    // keep the head/tail handling honest.
    const std::size_t len = rng.bernoulli(0.1)
                                ? static_cast<std::size_t>(rng.uniform_int(0, 3))
                                : static_cast<std::size_t>(rng.uniform_int(16, 1400));

    std::vector<std::vector<std::uint8_t>> data(k, std::vector<std::uint8_t>(len));
    for (auto& shard : data) {
      for (auto& b : shard) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const ReedSolomon rs(k, r);
    const auto parity = jqos::testing::reference_parity(rs, data);
    ASSERT_EQ(parity.size(), r);

    // Random erasure pattern: shuffle all n shard indices, keep a random
    // prefix as the survivors (delivered in shuffled order, so decode also
    // sees parity-before-data arrivals).
    const std::size_t n = k + r;
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    const std::size_t survivors = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n)));

    std::vector<std::pair<std::size_t, const std::uint8_t*>> shards;
    shards.reserve(survivors);
    for (std::size_t i = 0; i < survivors; ++i) {
      const std::size_t idx = order[i];
      shards.emplace_back(idx, idx < k ? data[idx].data() : parity[idx - k].data());
    }

    std::vector<std::size_t> targets(k);
    std::iota(targets.begin(), targets.end(), 0);
    std::vector<std::vector<std::uint8_t>> decoded(k, std::vector<std::uint8_t>(len));
    std::vector<std::uint8_t*> out;
    for (auto& d : decoded) out.push_back(d.data());
    const bool ok = rs.decode_into(shards, len, targets, out.data());
    if (survivors >= k) {
      ASSERT_TRUE(ok)
          << "iter=" << iter << " k=" << k << " r=" << r << " survivors=" << survivors;
      ASSERT_EQ(decoded.size(), k);
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_EQ(decoded[i], data[i])
            << "iter=" << iter << " k=" << k << " r=" << r << " len=" << len
            << " backend=" << gf_backend_name() << " shard=" << i;
      }
    } else {
      ASSERT_FALSE(ok)
          << "iter=" << iter << ": decode must fail with " << survivors << " < k=" << k
          << " survivors, not fabricate data";
    }
  }
}

}  // namespace
}  // namespace jqos::fec
