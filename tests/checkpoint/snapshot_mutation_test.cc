// Deterministic byte-mutation sweep over the snapshot decoder
// (docs/checkpoint.md): every single-bit flip and every whole-byte flip
// of the golden payload, with the header checksum recomputed so the
// payload parser itself sees each mutant. A mutant must either come
// back as a Status or decode to a snapshot that encodes to the mutant's
// exact bytes — the decoder accepts nothing it cannot write back.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/snapshot.h"
#include "checkpoint/snapshot_io.h"
#include "common/binary_io.h"
#include "snapshot_fixture.h"

namespace dkf {
namespace {

// Header: 8 magic + u32 version + u64 checksum + u64 payload length.
constexpr size_t kChecksumOffset = 12;
constexpr size_t kPayloadOffset = 28;

void FixChecksum(std::string& image) {
  const uint64_t checksum =
      Fnv1a64(reinterpret_cast<const uint8_t*>(image.data()) + kPayloadOffset,
              image.size() - kPayloadOffset);
  for (size_t i = 0; i < 8; ++i) {
    image[kChecksumOffset + i] = static_cast<char>((checksum >> (8 * i)) & 0xFF);
  }
}

struct SweepResult {
  int64_t mutants = 0;
  int64_t rejected = 0;
  std::vector<std::string> failures;  // first few, for the report
};

/// Decodes every mutant of `golden` produced by XOR-ing `mask` into one
/// payload byte at a time.
void Sweep(const std::string& golden, uint8_t mask, SweepResult& result) {
  for (size_t i = kPayloadOffset; i < golden.size(); ++i) {
    std::string mutant = golden;
    mutant[i] = static_cast<char>(static_cast<uint8_t>(mutant[i]) ^ mask);
    FixChecksum(mutant);
    ++result.mutants;
    auto decoded_or = DecodeSnapshot(mutant);
    if (!decoded_or.ok()) {
      ++result.rejected;
      continue;
    }
    auto again_or = EncodeSnapshot(decoded_or.value());
    const bool same = again_or.ok() && again_or.value() == mutant;
    if (!same && result.failures.size() < 8) {
      result.failures.push_back(
          "payload byte " + std::to_string(i - kPayloadOffset) + " mask " +
          std::to_string(mask) + ": " +
          (again_or.ok() ? std::string("re-encodes to different bytes")
                         : again_or.status().message()));
    }
  }
}

TEST(SnapshotMutationTest, EveryFlipIsRejectedOrReencodesExactly) {
  auto golden_or = EncodeSnapshot(testing_fixture::GoldenSnapshot());
  ASSERT_TRUE(golden_or.ok()) << golden_or.status().message();
  const std::string& golden = golden_or.value();
  ASSERT_GT(golden.size(), kPayloadOffset);

  SweepResult result;
  for (int bit = 0; bit < 8; ++bit) {
    Sweep(golden, static_cast<uint8_t>(1u << bit), result);
  }
  Sweep(golden, 0xFF, result);

  std::string report;
  for (const std::string& failure : result.failures) {
    report += "\n  " + failure;
  }
  EXPECT_TRUE(result.failures.empty()) << report;
  EXPECT_EQ(result.mutants,
            9 * static_cast<int64_t>(golden.size() - kPayloadOffset));
  // Most flips land in raw doubles and counters that any bit pattern
  // represents, so acceptance is common; the sweep still has to reach
  // the structural checks.
  EXPECT_GT(result.rejected, 0);
}

TEST(SnapshotMutationTest, EveryTruncationIsRejected) {
  // Cutting the payload anywhere (and re-stamping the header so only the
  // parser can notice) must fail cleanly, never read past the end.
  auto golden_or = EncodeSnapshot(testing_fixture::GoldenSnapshot());
  ASSERT_TRUE(golden_or.ok()) << golden_or.status().message();
  const std::string& golden = golden_or.value();
  for (size_t cut = kPayloadOffset; cut < golden.size(); ++cut) {
    std::string image = golden.substr(0, cut);
    const uint64_t length = cut - kPayloadOffset;
    for (size_t i = 0; i < 8; ++i) {
      image[20 + i] = static_cast<char>((length >> (8 * i)) & 0xFF);
    }
    FixChecksum(image);
    auto decoded_or = DecodeSnapshot(image);
    ASSERT_FALSE(decoded_or.ok()) << "payload cut at " << length;
  }
}

}  // namespace
}  // namespace dkf
