// Arbitrary-precision unsigned integers for RSA.
//
// Only the operations RSA needs: the value domain is non-negative integers
// (key material, moduli, message representatives are all unsigned), which
// keeps the invariants simple. BigInt limbs are 32-bit, little-endian,
// normalized (no high zero limbs). Modular exponentiation of odd moduli up
// to MontgomeryCtx::kMaxBits -- every RSA modulus and prime -- runs on a
// separate 64-bit-limb Montgomery kernel (CIOS) over fixed stack arrays;
// BigInt is only its interface.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace tp::crypto {

class BigInt {
 public:
  BigInt() = default;                      // zero
  BigInt(std::uint64_t v);                 // NOLINT(implicit) convenience

  /// Big-endian byte-string decode (TPM/RSA wire convention).
  static BigInt from_bytes_be(BytesView bytes);
  /// Hex decode (for test vectors); accepts leading zeros.
  static BigInt from_hex(const std::string& hex);

  /// Big-endian encode, left-padded with zeros to at least `min_len`.
  Bytes to_bytes_be(std::size_t min_len = 0) const;
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit i (false beyond bit_length).
  bool bit(std::size_t i) const;
  void set_bit(std::size_t i);

  std::strong_ordering operator<=>(const BigInt& other) const;
  bool operator==(const BigInt& other) const = default;

  BigInt operator+(const BigInt& other) const;
  /// Requires *this >= other (unsigned domain); throws otherwise.
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Knuth algorithm D: returns {quotient, remainder}. Throws
  /// std::domain_error on division by zero.
  std::pair<BigInt, BigInt> divmod(const BigInt& divisor) const;
  BigInt operator/(const BigInt& divisor) const;
  BigInt operator%(const BigInt& divisor) const;

  /// (a * b) mod m.
  static BigInt mod_mul(const BigInt& a, const BigInt& b, const BigInt& m);
  /// base^exp mod m. m must be >= 1; Montgomery path when m is odd and
  /// at most MontgomeryCtx::kMaxBits bits, square-and-multiply otherwise.
  static BigInt mod_exp(const BigInt& base, const BigInt& exp,
                        const BigInt& m);
  /// Multiplicative inverse mod m; returns zero BigInt if gcd(a, m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);
  static BigInt gcd(BigInt a, BigInt b);

  /// Uniform value in [0, bound) using `random_bytes` as the entropy
  /// source (n -> n random octets). bound must be > 0.
  static BigInt random_below(
      const BigInt& bound,
      const std::function<Bytes(std::size_t)>& random_bytes);

  /// Miller-Rabin probable-prime test with `rounds` random bases.
  static bool is_probable_prime(
      const BigInt& n, int rounds,
      const std::function<Bytes(std::size_t)>& random_bytes);

  /// Random probable prime of exactly `bits` bits (top two bits set so
  /// products of two such primes have full length).
  static BigInt generate_prime(
      std::size_t bits, const std::function<Bytes(std::size_t)>& random_bytes);

  const std::vector<std::uint32_t>& limbs() const { return limbs_; }

 private:
  friend class MontgomeryCtx;

  void normalize();
  static BigInt from_limbs(std::vector<std::uint32_t> limbs);

  std::vector<std::uint32_t> limbs_;  // little-endian, normalized
};

/// Reusable Montgomery context for a fixed odd modulus 3 <= m <
/// 2^kMaxBits. Construction precomputes n0inv = -m^{-1} mod 2^64 and
/// R^2 mod m (R = 2^(64 n) for n 64-bit limbs; two BigInt divisions) --
/// the expensive, per-modulus part of a modular exponentiation. Callers
/// that exponentiate repeatedly against the same modulus (RSA
/// verification at the SP) build one ctx per key and amortize that setup
/// across every call.
///
/// The kernel is CIOS Montgomery multiplication over 64-bit limbs with
/// unsigned __int128 products. One exponentiation keeps its operands,
/// accumulator and 16-entry window table in fixed stack arrays sized for
/// kMaxBits, so no product allocates.
///
/// Immutable after construction; safe to share across threads for
/// concurrent mod_exp calls.
class MontgomeryCtx {
 public:
  /// Largest modulus the fixed-capacity kernel accepts. Wire parsers
  /// bound RSA moduli to this (RsaPublicKey::deserialize), so untrusted
  /// keys never reach the constructor's throw.
  static constexpr std::size_t kMaxBits = 4096;

  /// Exponents of at most this many bits take the plain left-to-right
  /// square-and-multiply path, skipping the windowed path's 16-entry
  /// table precompute (a win for every fixed RSA public exponent:
  /// e = 3, 17, 65537 all land far below the bound).
  static constexpr std::size_t kSmallExpBits = 24;

  /// Throws std::domain_error unless m is odd, >= 3 and at most kMaxBits
  /// bits long.
  explicit MontgomeryCtx(const BigInt& m);

  /// The modulus, rebuilt from the limbs (the context keeps one copy).
  BigInt modulus() const;

  /// v < m, compared limb by limb without allocating.
  bool below_modulus(const BigInt& v) const;

  /// base^exp mod m. Auto-selects: plain square-and-multiply when
  /// exp.bit_length() <= kSmallExpBits, 4-bit fixed windows otherwise.
  /// A base at or above m is reduced first, by a division that callers
  /// holding a reduced base (RSA verify, BigInt::mod_exp) never pay.
  BigInt mod_exp(const BigInt& base, const BigInt& exp) const;

  /// The 4-bit windowed path unconditionally (exposed so tests and
  /// benches can compare it against the small-exponent path).
  BigInt mod_exp_windowed(const BigInt& base, const BigInt& exp) const;

  /// Heap bytes this context owns (the modulus and R^2 mod m), for
  /// per-client memory accounting.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::size_t kMaxLimbs = kMaxBits / 64;
  using Limb = std::uint64_t;

  /// v * R mod m as n_ limbs (Montgomery form); v must be below m.
  void to_mont(const BigInt& v, Limb* out) const;
  /// a * R^{-1} mod m back to a BigInt (leaves Montgomery form).
  BigInt from_mont(const Limb* a) const;
  /// n_ limbs as a BigInt.
  BigInt to_bigint(const Limb* a) const;
  /// Montgomery product out = a * b * R^{-1} mod m over n_ limbs; out
  /// may alias a or b.
  void mul(const Limb* a, const Limb* b, Limb* out) const;
  BigInt pow_small(const Limb* base_mont, const BigInt& exp) const;
  BigInt pow_windowed(const Limb* base_mont, const BigInt& exp) const;

  std::size_t n_;          // 64-bit limb count of m
  Limb n0inv_;             // -m^{-1} mod 2^64
  std::vector<Limb> m64_;  // m as n_ 64-bit limbs
  std::vector<Limb> r2_;   // R^2 mod m, n_ limbs
};

}  // namespace tp::crypto
