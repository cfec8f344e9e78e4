// Unit tests for src/base: Status/Result, capabilities, CRC32C, RNG, wire format.

#include <gtest/gtest.h>

#include "src/base/capability.h"
#include "src/base/crc32.h"
#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/base/wire.h"

namespace afs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = ConflictError("version superseded");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kConflict);
  EXPECT_EQ(s.ToString(), "CONFLICT: version superseded");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (uint32_t code = 0; code <= 14; ++code) {
    EXPECT_NE(ErrorCodeName(static_cast<ErrorCode>(code)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFoundError("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNotFound);
}

TEST(ResultTest, OkStatusIntoResultIsInternalError) {
  Result<int> r = OkStatus();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
}

Result<int> Doubler(Result<int> in) {
  ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_EQ(Doubler(TimeoutError("late")).status().code(), ErrorCode::kTimeout);
}

TEST(CapabilityTest, SignVerifyRoundTrip) {
  CapabilitySigner signer(7, 0xdeadbeef);
  Capability cap = signer.Sign(123, Rights::kRead | Rights::kWrite);
  EXPECT_TRUE(signer.Verify(cap, Rights::kRead).ok());
  EXPECT_TRUE(signer.Verify(cap, Rights::kRead | Rights::kWrite).ok());
}

TEST(CapabilityTest, MissingRightsRejected) {
  CapabilitySigner signer(7, 0xdeadbeef);
  Capability cap = signer.Sign(123, Rights::kRead);
  EXPECT_EQ(signer.Verify(cap, Rights::kWrite).code(), ErrorCode::kBadCapability);
}

TEST(CapabilityTest, ForgedCheckRejected) {
  CapabilitySigner signer(7, 0xdeadbeef);
  Capability cap = signer.Sign(123, Rights::kRead);
  cap.check ^= 1;
  EXPECT_EQ(signer.Verify(cap, Rights::kRead).code(), ErrorCode::kBadCapability);
}

TEST(CapabilityTest, RightsAmplificationRejected) {
  CapabilitySigner signer(7, 0xdeadbeef);
  Capability cap = signer.Sign(123, Rights::kRead);
  cap.rights = Rights::kAll;  // forged amplification: check no longer matches
  EXPECT_EQ(signer.Verify(cap, Rights::kRead).code(), ErrorCode::kBadCapability);
}

TEST(CapabilityTest, RestrictProducesVerifiableSubset) {
  CapabilitySigner signer(7, 0xdeadbeef);
  Capability cap = signer.Sign(123, Rights::kAll);
  auto restricted = signer.Restrict(cap, Rights::kRead);
  ASSERT_TRUE(restricted.ok());
  EXPECT_TRUE(signer.Verify(*restricted, Rights::kRead).ok());
  EXPECT_EQ(signer.Verify(*restricted, Rights::kWrite).code(), ErrorCode::kBadCapability);
}

TEST(CapabilityTest, RestrictCannotAmplify) {
  CapabilitySigner signer(7, 0xdeadbeef);
  Capability cap = signer.Sign(123, Rights::kRead);
  EXPECT_FALSE(signer.Restrict(cap, Rights::kAll).ok());
}

TEST(CapabilityTest, VerifyObjectIgnoresPortField) {
  CapabilitySigner signer(0, 0xdeadbeef);
  Capability cap = signer.Sign(5, Rights::kRead);
  cap.port = 9999;  // routing hint, not signed
  EXPECT_TRUE(signer.VerifyObject(cap, Rights::kRead).ok());
  EXPECT_FALSE(signer.Verify(cap, Rights::kRead).ok());
}

TEST(CapabilityTest, DifferentSecretsRejectEachOther) {
  CapabilitySigner a(7, 1);
  CapabilitySigner b(7, 2);
  Capability cap = a.Sign(123, Rights::kRead);
  EXPECT_FALSE(b.Verify(cap, Rights::kRead).ok());
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283.
  const char* s = "123456789";
  EXPECT_EQ(Crc32c(s, 9), 0xE3069283u);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(512, 0xab);
  uint32_t before = Crc32c(data.data(), data.size());
  data[100] ^= 0x01;
  EXPECT_NE(before, Crc32c(data.data(), data.size()));
}

TEST(Crc32Test, EmptyInput) { EXPECT_EQ(Crc32c(nullptr, 0), 0u); }

TEST(Crc32Test, EightByteStepsMatchByteSteps) {
  // Whole-buffer calls fold eight bytes per step; one-byte calls never do. Both must agree
  // at every length and alignment, including the stored CRCs of a block-sized payload.
  std::vector<uint8_t> data(4096 + 16);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + (i >> 7));
  }
  for (size_t offset : {0, 1, 3, 7}) {
    for (size_t len : {0, 1, 7, 8, 9, 15, 16, 17, 63, 4096}) {
      uint32_t bytewise = 0;
      for (size_t i = 0; i < len; ++i) {
        bytewise = Crc32c(data.data() + offset + i, 1, bytewise);
      }
      EXPECT_EQ(Crc32c(data.data() + offset, len), bytewise) << offset << "+" << len;
    }
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    uint64_t v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(WireTest, ScalarRoundTrip) {
  WireEncoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0xbeef);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefull);
  WireDecoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetU8(), 0xab);
  EXPECT_EQ(*dec.GetU16(), 0xbeef);
  EXPECT_EQ(*dec.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*dec.GetU64(), 0x0123456789abcdefull);
  EXPECT_TRUE(dec.AtEnd());
}

TEST(WireTest, BytesAndStringRoundTrip) {
  WireEncoder enc;
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  enc.PutBytes(payload);
  enc.PutString("hello");
  WireDecoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetBytes(), payload);
  EXPECT_EQ(*dec.GetString(), "hello");
}

TEST(WireTest, CapabilityRoundTrip) {
  Capability cap{12, 34, 56, 78};
  WireEncoder enc;
  enc.PutCapability(cap);
  EXPECT_EQ(enc.size(), 28u);  // the fixed wire size page headers rely on
  WireDecoder dec(enc.buffer());
  EXPECT_EQ(*dec.GetCapability(), cap);
}

TEST(WireTest, TruncatedReadFailsCleanly) {
  WireEncoder enc;
  enc.PutU16(7);
  WireDecoder dec(enc.buffer());
  EXPECT_FALSE(dec.GetU32().ok());
}

TEST(WireTest, TruncatedBytesLengthFailsCleanly) {
  WireEncoder enc;
  enc.PutU32(1000);  // claims 1000 bytes, provides none
  WireDecoder dec(enc.buffer());
  EXPECT_EQ(dec.GetBytes().status().code(), ErrorCode::kCorrupt);
}

TEST(WireTest, OwningDecoderSurvivesMove) {
  WireEncoder enc;
  enc.PutString("payload");
  WireDecoder dec(std::move(enc).Take());
  WireDecoder moved = std::move(dec);
  EXPECT_EQ(*moved.GetString(), "payload");
}

TEST(Mix64Test, InjectiveOnSample) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) {
    seen.insert(Mix64(i));
  }
  EXPECT_EQ(seen.size(), 10000u);
}

}  // namespace
}  // namespace afs
