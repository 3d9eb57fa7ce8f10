// Experiment T4: crypto primitive microbenchmarks (real time).
//
// Grounds the cost model: the SP-side verification path is ordinary
// software crypto, so its real throughput on this host is what the
// scalability experiment (F3) builds on.
#include <benchmark/benchmark.h>

#include <memory>

#include "crypto/aes.h"
#include "crypto/bignum.h"
#include "crypto/drbg.h"
#include "crypto/ecdsa.h"
#include "crypto/hmac.h"
#include "crypto/modes.h"
#include "crypto/p256.h"
#include "crypto/rsa.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

using namespace tp;
using namespace tp::crypto;

namespace {

std::function<Bytes(std::size_t)> entropy(const std::string& label) {
  auto drbg = std::make_shared<HmacDrbg>(bytes_of("bench:" + label));
  return [drbg](std::size_t n) { return drbg->generate(n); };
}

const RsaPrivateKey& key_of(std::size_t bits) {
  static const RsaPrivateKey k1024 =
      rsa_generate(1024, entropy("k1024"));
  static const RsaPrivateKey k2048 =
      rsa_generate(2048, entropy("k2048"));
  return bits == 1024 ? k1024 : k2048;
}

void BM_Sha1(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(65536);

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(4096);

// Reusable context: the key midstates are computed once, so each MAC
// skips the two key-block compressions the one-shot pays per call.
void BM_HmacSha256Ctx(benchmark::State& state) {
  HmacSha256Ctx ctx(Bytes(32, 0x11));
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  std::array<std::uint8_t, kSha256DigestSize> mac;
  for (auto _ : state) {
    ctx.update(data);
    ctx.finalize_into(mac);
    benchmark::DoNotOptimize(mac);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HmacSha256Ctx)->Arg(64)->Arg(4096);

void BM_AesCbcEncrypt(benchmark::State& state) {
  const Aes aes(Bytes(32, 0x22));
  const Bytes iv(16, 0x01);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbc_encrypt(aes, iv, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCbcEncrypt)->Arg(4096)->Arg(65536);

void BM_AesCtr(benchmark::State& state) {
  const Aes aes(Bytes(32, 0x22));
  const Bytes nonce(16, 0x01);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctr_crypt(aes, nonce, data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtr)->Arg(4096)->Arg(65536);

void BM_RsaSign(benchmark::State& state) {
  const auto& key = key_of(static_cast<std::size_t>(state.range(0)));
  const Bytes msg = bytes_of("confirmation statement");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key, HashAlg::kSha256, msg));
  }
}
BENCHMARK(BM_RsaSign)->Arg(1024)->Arg(2048);

void BM_RsaVerify(benchmark::State& state) {
  const auto& key = key_of(static_cast<std::size_t>(state.range(0)));
  const Bytes msg = bytes_of("confirmation statement");
  const Bytes sig = rsa_sign(key, HashAlg::kSha256, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rsa_verify(key.public_key(), HashAlg::kSha256, msg, sig));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(1024)->Arg(2048);

// The SP's hot path: one RsaVerifyContext per enrolled key, reused for
// every confirmation. Compare against BM_RsaVerify (per-call Montgomery
// setup) and BM_RsaVerifyCtxWindowed (the seed's windowed exponentiation,
// isolating the small-exponent win).
void BM_RsaVerifyCtx(benchmark::State& state) {
  const auto& key = key_of(static_cast<std::size_t>(state.range(0)));
  const RsaVerifyContext ctx(key.public_key());
  const Bytes msg = bytes_of("confirmation statement");
  const Bytes sig = rsa_sign(key, HashAlg::kSha256, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.verify(HashAlg::kSha256, msg, sig));
  }
  state.SetLabel("cached per-key Montgomery ctx");
}
BENCHMARK(BM_RsaVerifyCtx)->Arg(1024)->Arg(2048);

void BM_RsaVerifyCtxWindowed(benchmark::State& state) {
  // e = 65537 forced through the 4-bit windowed path with a cached ctx:
  // the exponentiation the seed performed, minus its per-call setup.
  const auto& key = key_of(static_cast<std::size_t>(state.range(0)));
  const MontgomeryCtx ctx(key.n);
  const Bytes msg = bytes_of("confirmation statement");
  const Bytes sig = rsa_sign(key, HashAlg::kSha256, msg);
  const BigInt s = BigInt::from_bytes_be(sig);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mod_exp_windowed(s, key.e));
  }
  state.SetLabel("windowed e=65537 (legacy path)");
}
BENCHMARK(BM_RsaVerifyCtxWindowed)->Arg(1024)->Arg(2048);

void BM_MontgomeryCtxSetup(benchmark::State& state) {
  // The per-verify cost the per-key cache removes (R^2 mod n division).
  const auto& key = key_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MontgomeryCtx(key.n));
  }
}
BENCHMARK(BM_MontgomeryCtxSetup)->Arg(1024)->Arg(2048);

void BM_RsaKeygen(benchmark::State& state) {
  auto rand = entropy("keygen-bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rsa_generate(static_cast<std::size_t>(state.range(0)), rand));
  }
}
BENCHMARK(BM_RsaKeygen)->Arg(768)->Arg(1024)->Unit(benchmark::kMillisecond);

void BM_ModExp2048(benchmark::State& state) {
  auto rand = entropy("modexp");
  const BigInt m = key_of(2048).n;
  const BigInt base = BigInt::from_bytes_be(rand(256)) % m;
  const BigInt exp = BigInt::from_bytes_be(rand(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::mod_exp(base, exp, m));
  }
  state.SetLabel("full 2048-bit exponent");
}
BENCHMARK(BM_ModExp2048)->Unit(benchmark::kMillisecond);

void BM_ModExpSmallExponent(benchmark::State& state) {
  // Small-exponent square-and-multiply vs the windowed path, same cached
  // ctx, e = 65537 (every RSA verify exponent in practice).
  auto rand = entropy("modexp-small");
  const BigInt m = key_of(2048).n;
  const MontgomeryCtx ctx(m);
  const BigInt base = BigInt::from_bytes_be(rand(256)) % m;
  const BigInt e65537(65537);
  const bool windowed = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(windowed ? ctx.mod_exp_windowed(base, e65537)
                                      : ctx.mod_exp(base, e65537));
  }
  state.SetLabel(windowed ? "windowed" : "small-exp fast path");
}
BENCHMARK(BM_ModExpSmallExponent)->Arg(0)->Arg(1);

// P-256 per-key window table (p256::WindowTable): the precompute every
// TPM 2.0 enrollment pays once beside its one-shot quote check, and the
// warm verify it buys.
const EcdsaPrivateKey& p256_key() {
  static const EcdsaPrivateKey key = ecdsa_generate(entropy("p256"));
  return key;
}

p256::AffinePoint p256_point(const EcdsaPublicKey& pk) {
  p256::AffinePoint q;
  q.x = p256::from_bytes_be(pk.x);
  q.y = p256::from_bytes_be(pk.y);
  q.infinity = false;
  return q;
}

void BM_P256WindowTable(benchmark::State& state) {
  const p256::AffinePoint q = p256_point(p256_key().public_key());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p256::WindowTable(q));
  }
  state.SetLabel(std::to_string(p256::WindowTable::kMemoryBytes) +
                 " B per key");
}
BENCHMARK(BM_P256WindowTable)->Unit(benchmark::kMicrosecond);

void BM_EcdsaVerifyOneShot(benchmark::State& state) {
  // The TPM 2.0 enrollment's quote check: ecdsa_verify with no per-key
  // table, once per enrollment.
  const EcdsaPublicKey pk = p256_key().public_key();
  const Bytes msg = bytes_of("quote attest body");
  const Bytes sig = ecdsa_sign(p256_key(), msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa_verify(pk, msg, sig));
  }
  state.SetLabel("one-shot, no per-key table");
}
BENCHMARK(BM_EcdsaVerifyOneShot)->Unit(benchmark::kMicrosecond);

void BM_EcdsaVerifyCtx(benchmark::State& state) {
  // Warm: one key's table stays in cache across iterations.
  const EcdsaVerifyContext ctx(p256_key().public_key());
  const Bytes msg = bytes_of("confirmation statement");
  const Bytes sig = ecdsa_sign(p256_key(), msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.verify(msg, sig));
  }
  state.SetLabel("cached per-key window table");
}
BENCHMARK(BM_EcdsaVerifyCtx);

void BM_HmacDrbg(benchmark::State& state) {
  HmacDrbg drbg(bytes_of("seed"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.generate(32));
  }
}
BENCHMARK(BM_HmacDrbg);

}  // namespace

BENCHMARK_MAIN();
