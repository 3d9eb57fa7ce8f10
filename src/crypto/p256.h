// NIST P-256 (secp256r1) field and group arithmetic.
//
// The TPM 2.0 backend signs quotes and confirmations with ECDSA-P256, so
// the verifier's hot loop is point arithmetic on this curve. The layer
// below ecdsa.{h,cpp}: fixed 4x64-bit limb integers, Montgomery
// arithmetic for both the field prime p and the group order n, Jacobian
// point formulas (a = -3), and fully precomputed fixed-base tables (a
// shared 12-bit comb for the generator, 4-bit windows per public key)
// that turn a fixed-base scalar multiplication into mixed additions with
// zero doublings -- the trick behind cached ECDSA verification (see
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
/// a^-1 mod n via binary extended Euclid; returns 0 for a == 0. Runs in
/// time dependent on the argument (~7x faster than the Fermat ladder),
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
/// Correctness baseline for the table-based path; used by the uncached
/// ecdsa_verify and the differential fuzz tests.
AffinePoint scalar_mul(const AffinePoint& base, const U256& k);
AffinePoint point_add(const AffinePoint& a, const AffinePoint& b);

/// k * G through the shared generator comb (fast path for signing, key
/// generation and the G half of verification). The generator is one
/// fixed, public point shared by every caller in the process, so it
/// affords a far wider comb than the per-key tables: 22 windows of 12
/// scalar bits (~5.5 MiB, built lazily on first use), making k*G ~22
/// mixed additions instead of the per-key table's 64.
AffinePoint scalar_mul_base(const U256& k);

/// Fully precomputed fixed-base table: 64 windows of 4 scalar bits, 15
/// multiples each (d * 16^j * B for d in 1..15), stored as affine
/// Montgomery-form points (60 KiB). k*B then costs one mixed addition
/// per non-zero window digit and no doublings -- at most 64 additions.
/// The table is built once per enrolled key (960 point additions and one
/// batched inversion, like RsaVerifyContext's R^2 precompute but
/// heavier) and then amortized over every transaction confirmation that
/// key signs. Wider windows shorten the walk but grow the build and the
/// bytes by 2^w / w: 8-bit windows (32 x 255 entries) halve the walk at
/// 8.5x the build time and memory per key (EXPERIMENTS.md F15).
///
/// Immutable after construction; safe to share across threads.
class WindowTable {
 public:
  /// `base` must satisfy on_curve(); tables over invalid points must be
  /// rejected by the caller (EcdsaVerifyContext validates first).
  explicit WindowTable(const AffinePoint& base);
  ~WindowTable();
  WindowTable(WindowTable&&) noexcept;
  WindowTable& operator=(WindowTable&&) noexcept;

  static constexpr int kWindows = 64;  // 4-bit windows over 256 bits
  static constexpr int kRowLen = 15;   // non-zero digits 1..15

  /// Heap footprint of the point table, for capacity planning.
  static constexpr std::size_t kMemoryBytes =
      kWindows * kRowLen * 2 * kFieldSize;

 private:
  friend bool verify_r_match(const WindowTable&, const U256&, const U256&,
                             const U256&);
  friend AffinePoint table_scalar_mul(const WindowTable&, const U256&);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The core of cached ECDSA verification: computes R = u1*G + u2*Q (Q is
/// `q_table`'s base) and decides x(R) mod n == r WITHOUT the final field
/// inversion, by comparing X_R against r*Z_R^2 (and (r+n)*Z_R^2 when
/// r + n < p). Returns false when R is the point at infinity.
bool verify_r_match(const WindowTable& q_table, const U256& u1,
                    const U256& u2, const U256& r);

/// k * B through an arbitrary window table (exposed for tests).
AffinePoint table_scalar_mul(const WindowTable& table, const U256& k);

}  // namespace tp::crypto::p256
