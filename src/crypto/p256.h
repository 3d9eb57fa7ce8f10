// NIST P-256 (secp256r1) field and group arithmetic.
//
// The TPM 2.0 backend signs quotes and confirmations with ECDSA-P256, so
// the verifier's hot loop is point arithmetic on this curve. The layer
// below ecdsa.{h,cpp}: fixed 4x64-bit limb integers, Montgomery
// arithmetic for both the field prime p and the group order n, Jacobian
// point formulas (a = -3), and signed-digit fixed-base tables (12-bit
// windows for the shared generator, 4-bit windows per public key) that
// turn a fixed-base scalar multiplication into mixed additions with zero
// doublings -- the trick behind cached ECDSA verification (see
// EcdsaVerifyContext).
//
// Everything here is deterministic, allocation-light and, like the rest
// of the crypto substrate, an emulation-grade implementation: branches on
// secret data are avoided on the obvious paths but no hard constant-time
// guarantee is claimed (matching bignum.h).
#pragma once

#include <cstdint>
#include <memory>

#include "util/bytes.h"

namespace tp::crypto::p256 {

/// Serialized size of one coordinate or scalar (256 bits, big-endian).
inline constexpr std::size_t kFieldSize = 32;

/// 256-bit unsigned integer, little-endian 64-bit limbs. Plain magnitude
/// at this interface; Montgomery representations never escape p256.cpp.
struct U256 {
  std::uint64_t w[4] = {0, 0, 0, 0};

  bool is_zero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  bool operator==(const U256& other) const = default;
};

/// Big-endian bytes <-> limbs. `be` must be exactly kFieldSize bytes;
/// from_bytes_be does NOT reduce (compare against order_n()/prime_p()).
U256 from_bytes_be(BytesView be);
Bytes to_bytes_be(const U256& a);

/// a < b as 256-bit unsigned integers.
bool u256_less(const U256& a, const U256& b);

/// The group order n and field prime p.
const U256& order_n();
const U256& prime_p();

// ---- arithmetic mod n (scalar field) ----------------------------------
// Inputs and outputs are plain (non-Montgomery) magnitudes < n, except
// reduce_mod_n which accepts any 256-bit value.

/// a mod n for a < 2n (one conditional subtract); this covers bits2int
/// of a 256-bit hash, since 2n > 2^256.
U256 reduce_mod_n(const U256& a);
U256 add_mod_n(const U256& a, const U256& b);
U256 mul_mod_n(const U256& a, const U256& b);
/// a^-1 mod n via Fermat (n is prime); returns 0 for a == 0. The
/// exponentiation ladder's memory access pattern does not depend on the
/// argument, so this is the right call for secret scalars (signing).
U256 inv_mod_n(const U256& a);
/// a^-1 mod n via Bernstein-Yang divsteps; returns 0 for a == 0. Runs in
/// time dependent on the argument (stops once the divsteps reach zero),
/// so it is reserved for PUBLIC values -- verification inverts only the
/// signature component s, which the caller already holds in the clear.
U256 inv_mod_n_vartime(const U256& a);

// ---- points ------------------------------------------------------------

/// Affine point with plain (non-Montgomery) coordinates.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = true;
};

const AffinePoint& generator();

/// Full curve-membership check: coordinates < p, y^2 == x^3 - 3x + b,
/// and not the point at infinity.
bool on_curve(const AffinePoint& point);

/// Reference scalar multiplication (plain double-and-add) and addition.
/// Public only as the test oracle: the differential tests check every
/// table walk and ecdsa_verify against them, and no verify path calls
/// them.
AffinePoint scalar_mul(const AffinePoint& base, const U256& k);
AffinePoint point_add(const AffinePoint& a, const AffinePoint& b);

/// k * G through the shared generator table (the fast path for signing,
/// key generation and the G half of verification): at most 22 mixed
/// additions.
AffinePoint scalar_mul_base(const U256& k);

/// Signed-digit fixed-base table, the one table shape for every fixed
/// base. A scalar k is reduced mod n, folded below 2^255 (k >= 2^255
/// becomes n - k with every digit's sign flipped), and recoded into w-bit
/// digits in [-(2^(w-1) - 1), 2^(w-1)]. Row j holds d * 2^(wj) * B for
/// d = 1..2^(w-1), affine and in Montgomery form; a negative digit adds
/// the entry's negation (x, p - y). k*B then costs one mixed addition per
/// non-zero digit and no doublings.
///
/// Two widths are in use. Per enrolled key, w = 4: 64 rows x 8 points
/// (32 KiB), built once per enrollment, recovery or handoff and amortized
/// over every confirmation that key signs. For the generator, which every
/// caller in the process shares, w = 12: 22 rows x 2,048 points
/// (2.75 MiB, built lazily on first use), so u1*G is at most 22
/// additions. Wider windows shorten the walk but grow the build and the
/// bytes by about 2^(w-1) / w (EXPERIMENTS.md F15).
///
/// Immutable after construction; safe to share across threads.
class WindowTable {
 public:
  static constexpr int kKeyWindowBits = 4;
  static constexpr int kGeneratorWindowBits = 12;

  /// Heap footprint of a per-key table's points, for capacity planning.
  static constexpr std::size_t kMemoryBytes = 64 * 8 * 2 * kFieldSize;

  /// `base` must satisfy on_curve(); tables over invalid points must be
  /// rejected by the caller (EcdsaVerifyContext validates first). Throws
  /// std::invalid_argument unless kKeyWindowBits <= window_bits <=
  /// kGeneratorWindowBits.
  explicit WindowTable(const AffinePoint& base,
                       int window_bits = kKeyWindowBits);
  ~WindowTable();
  WindowTable(WindowTable&&) noexcept;
  WindowTable& operator=(WindowTable&&) noexcept;

 private:
  friend bool verify_r_match(const WindowTable&, const U256&, const U256&,
                             const U256&);
  friend bool verify_r_match(const AffinePoint&, const U256&, const U256&,
                             const U256&);
  friend AffinePoint table_scalar_mul(const WindowTable&, const U256&);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The core of cached ECDSA verification: computes R = u1*G + u2*Q (Q is
/// `q_table`'s base) by walking the generator table and `q_table`, and
/// decides x(R) mod n == r WITHOUT the final field inversion, by
/// comparing X_R against r*Z_R^2 (and (r+n)*Z_R^2 when r + n < p).
/// Returns false when R is the point at infinity.
bool verify_r_match(const WindowTable& q_table, const U256& u1,
                    const U256& u2, const U256& r);

/// The same decision for a key with no table (the one-shot ecdsa_verify,
/// i.e. the TPM 2.0 enrollment's quote check): u1*G still walks the
/// generator table, and u2*Q is a Horner walk over u2's signed 4-bit
/// digits -- four doublings per window and one mixed addition from a
/// per-call row of 1..8 x Q. `q` must satisfy on_curve().
bool verify_r_match(const AffinePoint& q, const U256& u1, const U256& u2,
                    const U256& r);

/// k * B through a window table, for any 256-bit k (exposed for tests).
AffinePoint table_scalar_mul(const WindowTable& table, const U256& k);

}  // namespace tp::crypto::p256
