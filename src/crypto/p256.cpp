#include "crypto/p256.h"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace tp::crypto::p256 {
namespace {

using u64 = std::uint64_t;

inline u64 add4(u64 out[4], const u64 a[4], const u64 b[4]) {
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 s = a[i] + b[i];
    const u64 c1 = (s < b[i]) ? 1u : 0u;
    const u64 s2 = s + carry;
    const u64 c2 = (s2 < carry) ? 1u : 0u;
    out[i] = s2;
    carry = c1 | c2;
  }
  return carry;
}

inline u64 sub4(u64 out[4], const u64 a[4], const u64 b[4]) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 d = a[i] - b[i];
    const u64 b1 = (a[i] < b[i]) ? 1u : 0u;
    const u64 d2 = d - borrow;
    const u64 b2 = (d < borrow) ? 1u : 0u;
    out[i] = d2;
    borrow = b1 | b2;
  }
  return borrow;
}

inline bool geq4(const u64 a[4], const u64 b[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

inline bool eq4(const u64 a[4], const u64 b[4]) {
  return ((a[0] ^ b[0]) | (a[1] ^ b[1]) | (a[2] ^ b[2]) | (a[3] ^ b[3])) == 0;
}

inline bool is_zero4(const u64 a[4]) {
  return (a[0] | a[1] | a[2] | a[3]) == 0;
}

inline void copy4(u64 out[4], const u64 a[4]) {
  std::memcpy(out, a, 4 * sizeof(u64));
}

/// Montgomery context for a 256-bit odd modulus (R = 2^256).
struct Mont {
  u64 mod[4];
  u64 n0;      // -mod^{-1} mod 2^64
  u64 rr[4];   // R^2 mod mod (to_mont multiplier)
  u64 one[4];  // R mod mod (1 in Montgomery form)
};

inline void mod_add(const Mont& m, const u64 a[4], const u64 b[4],
                    u64 out[4]) {
  const u64 carry = add4(out, a, b);
  if (carry || geq4(out, m.mod)) sub4(out, out, m.mod);
}

inline void mod_sub(const Mont& m, const u64 a[4], const u64 b[4],
                    u64 out[4]) {
  if (sub4(out, a, b)) add4(out, out, m.mod);
}

// CIOS Montgomery multiplication: out = a * b * R^-1 mod m. The working
// accumulator is interleaved with the reduction, so the intermediate
// never exceeds 5 limbs + 1 bit; one conditional subtract at the end
// brings the result below the modulus.
void mont_mul(const Mont& m, const u64 a[4], const u64 b[4], u64 out[4]) {
  // The double-wide accumulator form: each u128 sum a[i]*b[j] + t + carry
  // is at most (2^64-1)^2 + 2*(2^64-1) = 2^128 - 1, so no overflow; the
  // compiler lowers the chain to mul/adc sequences.
  using u128 = unsigned __int128;
  u64 t[6] = {0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    const u64 ai = a[i];
    u128 c = static_cast<u128>(ai) * b[0] + t[0];
    t[0] = static_cast<u64>(c);
    c = static_cast<u128>(ai) * b[1] + t[1] + static_cast<u64>(c >> 64);
    t[1] = static_cast<u64>(c);
    c = static_cast<u128>(ai) * b[2] + t[2] + static_cast<u64>(c >> 64);
    t[2] = static_cast<u64>(c);
    c = static_cast<u128>(ai) * b[3] + t[3] + static_cast<u64>(c >> 64);
    t[3] = static_cast<u64>(c);
    c = static_cast<u128>(t[4]) + static_cast<u64>(c >> 64);
    t[4] = static_cast<u64>(c);
    t[5] += static_cast<u64>(c >> 64);

    const u64 mi = t[0] * m.n0;
    c = static_cast<u128>(mi) * m.mod[0] + t[0];  // low limb cancels
    u64 carry = static_cast<u64>(c >> 64);
    c = static_cast<u128>(mi) * m.mod[1] + t[1] + carry;
    t[0] = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    c = static_cast<u128>(mi) * m.mod[2] + t[2] + carry;
    t[1] = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    c = static_cast<u128>(mi) * m.mod[3] + t[3] + carry;
    t[2] = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    c = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<u64>(c);
    t[4] = t[5] + static_cast<u64>(c >> 64);
    t[5] = 0;
  }
  if (t[4] || geq4(t, m.mod)) sub4(t, t, m.mod);
  copy4(out, t);
}

inline void to_mont(const Mont& m, const u64 a[4], u64 out[4]) {
  mont_mul(m, a, m.rr, out);
}

inline void from_mont(const Mont& m, const u64 a[4], u64 out[4]) {
  static constexpr u64 kOne[4] = {1, 0, 0, 0};
  mont_mul(m, a, kOne, out);
}

/// out = a^e (a Montgomery, e plain); plain square-and-multiply, MSB
/// first. Used only for inversions, where e is public (mod - 2).
void mont_pow(const Mont& m, const u64 a[4], const u64 e[4], u64 out[4]) {
  u64 acc[4];
  copy4(acc, m.one);
  for (int i = 255; i >= 0; --i) {
    mont_mul(m, acc, acc, acc);
    if ((e[i / 64] >> (i % 64)) & 1u) mont_mul(m, acc, a, acc);
  }
  copy4(out, acc);
}

/// out = a^-1 (both Montgomery) via Fermat; modulus must be prime.
void mont_inv(const Mont& m, const u64 a[4], u64 out[4]) {
  static constexpr u64 kTwo[4] = {2, 0, 0, 0};
  u64 e[4];
  sub4(e, m.mod, kTwo);
  mont_pow(m, a, e, out);
}

Mont make_mont(const u64 mod[4]) {
  Mont m{};
  copy4(m.mod, mod);
  // Newton iteration for mod[0]^-1 mod 2^64 (mod must be odd); each step
  // doubles the number of correct low bits, starting from >= 3.
  u64 inv = mod[0];
  for (int i = 0; i < 6; ++i) inv *= 2 - mod[0] * inv;
  m.n0 = ~inv + 1;
  // R mod m and R^2 mod m by repeated modular doubling of 1: cheap,
  // branch-simple, and runs once per modulus at static-init time.
  u64 t[4] = {1, 0, 0, 0};
  for (int i = 0; i < 256; ++i) mod_add(m, t, t, t);
  copy4(m.one, t);
  for (int i = 0; i < 256; ++i) mod_add(m, t, t, t);
  copy4(m.rr, t);
  return m;
}

// P-256 domain parameters (FIPS 186-4), little-endian limbs.
constexpr u64 kP[4] = {0xFFFFFFFFFFFFFFFFull, 0x00000000FFFFFFFFull,
                       0x0000000000000000ull, 0xFFFFFFFF00000001ull};
constexpr u64 kN[4] = {0xF3B9CAC2FC632551ull, 0xBCE6FAADA7179E84ull,
                       0xFFFFFFFFFFFFFFFFull, 0xFFFFFFFF00000000ull};
constexpr u64 kB[4] = {0x3BCE3C3E27D2604Bull, 0x651D06B0CC53B0F6ull,
                       0xB3EBBD55769886BCull, 0x5AC635D8AA3A93E7ull};
constexpr u64 kGx[4] = {0xF4A13945D898C296ull, 0x77037D812DEB33A0ull,
                        0xF8BCE6E563A440F2ull, 0x6B17D1F2E12C4247ull};
constexpr u64 kGy[4] = {0xCBB6406837BF51F5ull, 0x2BCE33576B315ECEull,
                        0x8EE7EB4A7C0F9E16ull, 0x4FE342E2FE1A7F9Bull};

const Mont& mont_p() {
  static const Mont m = make_mont(kP);
  return m;
}

const Mont& mont_n() {
  static const Mont m = make_mont(kN);
  return m;
}

// Dedicated Montgomery multiplication for the field prime
//   p = 2^256 - 2^224 + 2^192 + 2^96 - 1
//     = [2^64-1, 2^32-1, 0, 2^64-2^32+1] in little-endian limbs.
// Two structural gifts: p = -1 mod 2^64 makes n0 = 1, so the reduction
// quotient is just the low accumulator limb, and every limb of p is a
// sum/difference of powers of two, so the whole reduction row is shifts
// and adds -- 16 of the generic CIOS's 32 limb products vanish. This is
// the multiply under every point operation; the generic mont_mul stays
// for the scalar field n and the one-off setup paths. Forced inline:
// the point formulas chain 8-12 of these, and letting the compiler
// schedule across consecutive calls is worth ~15% on the verify walk.
__attribute__((always_inline)) inline void mont_mul_p(const u64 a[4],
                                                      const u64 b[4],
                                                      u64 out[4]) {
  using u128 = unsigned __int128;
  u64 t0 = 0, t1 = 0, t2 = 0, t3 = 0, t4 = 0, t5 = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 ai = a[i];
    u128 c = static_cast<u128>(ai) * b[0] + t0;
    t0 = static_cast<u64>(c);
    c = static_cast<u128>(ai) * b[1] + t1 + static_cast<u64>(c >> 64);
    t1 = static_cast<u64>(c);
    c = static_cast<u128>(ai) * b[2] + t2 + static_cast<u64>(c >> 64);
    t2 = static_cast<u64>(c);
    c = static_cast<u128>(ai) * b[3] + t3 + static_cast<u64>(c >> 64);
    t3 = static_cast<u64>(c);
    c = static_cast<u128>(t4) + static_cast<u64>(c >> 64);
    t4 = static_cast<u64>(c);
    t5 += static_cast<u64>(c >> 64);

    // Reduction step: with quotient digit mi = t0 (n0 == 1), t + mi*p
    // clears the low limb exactly; shift the accumulator down one limb.
    const u64 mi = t0;
    // mi * p[0] = (mi << 64) - mi; low half cancels t0.
    c = (static_cast<u128>(mi) << 64) - mi + t0;
    u64 carry = static_cast<u64>(c >> 64);
    // mi * p[1] = (mi << 32) - mi.
    c = (static_cast<u128>(mi) << 32) - mi + t1 + carry;
    t0 = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    // p[2] = 0.
    c = static_cast<u128>(t2) + carry;
    t1 = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    // mi * p[3] = (mi << 64) - (mi << 32) + mi.
    c = (static_cast<u128>(mi) << 64) - (static_cast<u128>(mi) << 32) + mi +
        t3 + carry;
    t2 = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    c = static_cast<u128>(t4) + carry;
    t3 = static_cast<u64>(c);
    t4 = t5 + static_cast<u64>(c >> 64);
    t5 = 0;
  }
  u64 t[4] = {t0, t1, t2, t3};
  if (t4 || geq4(t, kP)) sub4(t, t, kP);
  copy4(out, t);
}

// Dedicated Montgomery squaring mod p: the 16 limb products of the
// generic multiply collapse to 10 (6 off-diagonal, computed once and
// doubled, plus 4 diagonal), followed by the same shift-and-add
// reduction as mont_mul_p. The point formulas spend 3 of their 11
// multiplies on squarings, so this is worth ~5% on the verify walk.
__attribute__((always_inline)) inline void mont_sqr_p(const u64 a[4],
                                                      u64 out[4]) {
  using u128 = unsigned __int128;
  // Off-diagonal half: t1..t6 accumulate a[i]*a[j] for i < j.
  u128 c = static_cast<u128>(a[0]) * a[1];
  u64 t1 = static_cast<u64>(c);
  u64 k = static_cast<u64>(c >> 64);
  c = static_cast<u128>(a[0]) * a[2] + k;
  u64 t2 = static_cast<u64>(c);
  k = static_cast<u64>(c >> 64);
  c = static_cast<u128>(a[0]) * a[3] + k;
  u64 t3 = static_cast<u64>(c);
  u64 t4 = static_cast<u64>(c >> 64);
  c = static_cast<u128>(a[1]) * a[2] + t3;
  t3 = static_cast<u64>(c);
  k = static_cast<u64>(c >> 64);
  c = static_cast<u128>(a[1]) * a[3] + t4 + k;
  t4 = static_cast<u64>(c);
  u64 t5 = static_cast<u64>(c >> 64);
  c = static_cast<u128>(a[2]) * a[3] + t5;
  t5 = static_cast<u64>(c);
  u64 t6 = static_cast<u64>(c >> 64);
  // Double it and add the diagonal.
  u64 t7 = t6 >> 63;
  t6 = (t6 << 1) | (t5 >> 63);
  t5 = (t5 << 1) | (t4 >> 63);
  t4 = (t4 << 1) | (t3 >> 63);
  t3 = (t3 << 1) | (t2 >> 63);
  t2 = (t2 << 1) | (t1 >> 63);
  t1 = t1 << 1;
  c = static_cast<u128>(a[0]) * a[0];
  u64 t0 = static_cast<u64>(c);
  u128 d = static_cast<u128>(t1) + static_cast<u64>(c >> 64);
  t1 = static_cast<u64>(d);
  c = static_cast<u128>(a[1]) * a[1] + t2 + static_cast<u64>(d >> 64);
  t2 = static_cast<u64>(c);
  d = static_cast<u128>(t3) + static_cast<u64>(c >> 64);
  t3 = static_cast<u64>(d);
  c = static_cast<u128>(a[2]) * a[2] + t4 + static_cast<u64>(d >> 64);
  t4 = static_cast<u64>(c);
  d = static_cast<u128>(t5) + static_cast<u64>(c >> 64);
  t5 = static_cast<u64>(d);
  c = static_cast<u128>(a[3]) * a[3] + t6 + static_cast<u64>(d >> 64);
  t6 = static_cast<u64>(c);
  t7 += static_cast<u64>(c >> 64);
  // Four mul-free reduction rounds (see mont_mul_p): each consumes the
  // low limb and shifts the 8-limb window down by one.
  for (int i = 0; i < 4; ++i) {
    const u64 mi = t0;
    c = (static_cast<u128>(mi) << 64) - mi + t0;  // mi*p[0]; low cancels
    u64 carry = static_cast<u64>(c >> 64);
    c = (static_cast<u128>(mi) << 32) - mi + t1 + carry;
    t0 = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    c = static_cast<u128>(t2) + carry;  // p[2] = 0
    t1 = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    c = (static_cast<u128>(mi) << 64) - (static_cast<u128>(mi) << 32) + mi +
        t3 + carry;
    t2 = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    c = static_cast<u128>(t4) + carry;
    t3 = static_cast<u64>(c);
    carry = static_cast<u64>(c >> 64);
    // Ripple into the untouched upper limbs of the window.
    c = static_cast<u128>(t5) + carry;
    t4 = static_cast<u64>(c);
    c = static_cast<u128>(t6) + static_cast<u64>(c >> 64);
    t5 = static_cast<u64>(c);
    c = static_cast<u128>(t7) + static_cast<u64>(c >> 64);
    t6 = static_cast<u64>(c);
    t7 = static_cast<u64>(c >> 64);
  }
  u64 t[4] = {t0, t1, t2, t3};
  if (t4 || geq4(t, kP)) sub4(t, t, kP);
  copy4(out, t);
}

/// Jacobian point, Montgomery-form coordinates; z == 0 is infinity.
struct JacPt {
  u64 x[4], y[4], z[4];
};

/// Affine point, Montgomery-form coordinates; never infinity.
struct AffPt {
  u64 x[4], y[4];
};

JacPt jac_infinity() {
  JacPt p{};
  const Mont& m = mont_p();
  copy4(p.x, m.one);
  copy4(p.y, m.one);
  // z stays zero
  return p;
}

// Doubling with the a = -3 shortcut (EFD dbl-2001-b): 3M + 5S. Safe on
// the point at infinity (z = 0 propagates to z3 = 0) and under
// out-aliases-p.
void pt_double(const JacPt& p, JacPt& out) {
  const Mont& m = mont_p();
  u64 delta[4], gamma[4], beta[4], alpha[4], t0[4], t1[4];
  u64 x3[4], y3[4], z3[4];
  mont_sqr_p(p.z, delta);
  mont_sqr_p(p.y, gamma);
  mont_mul_p(p.x, gamma, beta);
  mod_sub(m, p.x, delta, t0);
  mod_add(m, p.x, delta, t1);
  mont_mul_p(t0, t1, t0);
  mod_add(m, t0, t0, alpha);
  mod_add(m, alpha, t0, alpha);  // alpha = 3(x - delta)(x + delta)
  mod_add(m, p.y, p.z, t1);
  mont_sqr_p(t1, t1);
  mod_sub(m, t1, gamma, t1);
  mod_sub(m, t1, delta, z3);  // z3 = (y + z)^2 - gamma - delta
  mont_sqr_p(alpha, x3);
  mod_add(m, beta, beta, t0);
  mod_add(m, t0, t0, t0);  // 4 beta
  mod_sub(m, x3, t0, x3);
  mod_sub(m, x3, t0, x3);  // x3 = alpha^2 - 8 beta
  mod_sub(m, t0, x3, t1);  // 4 beta - x3
  mont_mul_p(alpha, t1, y3);
  mont_sqr_p(gamma, t0);
  mod_add(m, t0, t0, t0);
  mod_add(m, t0, t0, t0);
  mod_add(m, t0, t0, t0);  // 8 gamma^2
  mod_sub(m, y3, t0, y3);
  copy4(out.x, x3);
  copy4(out.y, y3);
  copy4(out.z, z3);
}

// Mixed addition p (Jacobian) + q (affine), 8M + 3S; the workhorse of
// the window-table walk. Handles p = infinity, p == q (falls back to
// doubling) and p == -q (returns infinity). Safe under out-aliases-p.
void pt_add_affine(const JacPt& p, const AffPt& q, JacPt& out) {
  const Mont& m = mont_p();
  if (is_zero4(p.z)) {
    copy4(out.x, q.x);
    copy4(out.y, q.y);
    copy4(out.z, m.one);
    return;
  }
  u64 z1z1[4], u2[4], s2[4], h[4], r[4], t[4];
  mont_sqr_p(p.z, z1z1);
  mont_mul_p(q.x, z1z1, u2);
  mont_mul_p(p.z, z1z1, t);
  mont_mul_p(q.y, t, s2);
  mod_sub(m, u2, p.x, h);
  mod_sub(m, s2, p.y, r);
  if (is_zero4(h)) {
    if (is_zero4(r)) {
      pt_double(p, out);
    } else {
      out = jac_infinity();
    }
    return;
  }
  u64 h2[4], h3[4], v[4], x3[4], y3[4], z3[4];
  mont_sqr_p(h, h2);
  mont_mul_p(h, h2, h3);
  mont_mul_p(p.x, h2, v);
  mont_sqr_p(r, x3);
  mod_sub(m, x3, h3, x3);
  mod_sub(m, x3, v, x3);
  mod_sub(m, x3, v, x3);  // x3 = r^2 - h^3 - 2v
  mod_sub(m, v, x3, t);
  mont_mul_p(r, t, y3);
  mont_mul_p(p.y, h3, t);
  mod_sub(m, y3, t, y3);  // y3 = r(v - x3) - y1 h^3
  mont_mul_p(p.z, h, z3);
  copy4(out.x, x3);
  copy4(out.y, y3);
  copy4(out.z, z3);
}

// General Jacobian + Jacobian addition (the reference point_add only).
void pt_add(const JacPt& p, const JacPt& q, JacPt& out) {
  const Mont& m = mont_p();
  if (is_zero4(p.z)) {
    out = q;
    return;
  }
  if (is_zero4(q.z)) {
    out = p;
    return;
  }
  u64 z1z1[4], z2z2[4], u1[4], u2[4], s1[4], s2[4], h[4], r[4], t[4];
  mont_sqr_p(p.z, z1z1);
  mont_sqr_p(q.z, z2z2);
  mont_mul_p(p.x, z2z2, u1);
  mont_mul_p(q.x, z1z1, u2);
  mont_mul_p(q.z, z2z2, t);
  mont_mul_p(p.y, t, s1);
  mont_mul_p(p.z, z1z1, t);
  mont_mul_p(q.y, t, s2);
  mod_sub(m, u2, u1, h);
  mod_sub(m, s2, s1, r);
  if (is_zero4(h)) {
    if (is_zero4(r)) {
      pt_double(p, out);
    } else {
      out = jac_infinity();
    }
    return;
  }
  u64 h2[4], h3[4], v[4], x3[4], y3[4], z3[4];
  mont_sqr_p(h, h2);
  mont_mul_p(h, h2, h3);
  mont_mul_p(u1, h2, v);
  mont_sqr_p(r, x3);
  mod_sub(m, x3, h3, x3);
  mod_sub(m, x3, v, x3);
  mod_sub(m, x3, v, x3);
  mod_sub(m, v, x3, t);
  mont_mul_p(r, t, y3);
  mont_mul_p(s1, h3, t);
  mod_sub(m, y3, t, y3);
  mont_mul_p(p.z, q.z, z3);
  mont_mul_p(z3, h, z3);
  copy4(out.x, x3);
  copy4(out.y, y3);
  copy4(out.z, z3);
}

JacPt jac_from_plain_affine(const AffinePoint& a) {
  const Mont& m = mont_p();
  JacPt p{};
  to_mont(m, a.x.w, p.x);
  to_mont(m, a.y.w, p.y);
  copy4(p.z, m.one);
  return p;
}

AffinePoint jac_to_plain_affine(const JacPt& p) {
  AffinePoint out;
  if (is_zero4(p.z)) return out;  // infinity
  const Mont& m = mont_p();
  u64 zinv[4], zinv2[4], zinv3[4], t[4];
  mont_inv(m, p.z, zinv);
  mont_mul(m, zinv, zinv, zinv2);
  mont_mul(m, zinv2, zinv, zinv3);
  mont_mul(m, p.x, zinv2, t);
  from_mont(m, t, out.x.w);
  mont_mul(m, p.y, zinv3, t);
  from_mont(m, t, out.y.w);
  out.infinity = false;
  return out;
}

/// Batch-convert Jacobian points to affine Montgomery form with a single
/// field inversion (Montgomery's trick over all z coordinates). No input
/// may be the point at infinity. The forward pass parks each running
/// product in out[i].x, which the backward pass reads before it writes
/// the coordinate, so the trick needs no scratch array.
void batch_normalize(const JacPt* in, std::size_t count, AffPt* out) {
  u64 acc[4];
  copy4(acc, mont_p().one);
  for (std::size_t i = 0; i < count; ++i) {
    copy4(out[i].x, acc);
    mont_mul_p(acc, in[i].z, acc);
  }
  u64 inv_all[4];
  mont_inv(mont_p(), acc, inv_all);
  for (std::size_t i = count; i-- > 0;) {
    u64 zinv[4], zinv2[4], zinv3[4];
    mont_mul_p(inv_all, out[i].x, zinv);
    mont_mul_p(inv_all, in[i].z, inv_all);
    mont_sqr_p(zinv, zinv2);
    mont_mul_p(zinv2, zinv, zinv3);
    mont_mul_p(in[i].x, zinv2, out[i].x);
    mont_mul_p(in[i].y, zinv3, out[i].y);
  }
}

// ---- signed-digit fixed windows ----------------------------------------

/// Windows of a w-bit recoding, ceil(256 / w): enough for a scalar folded
/// below 2^255 plus its last carry.
constexpr int windows_of(int w) { return (256 + w - 1) / w; }
constexpr int kMaxWindows = windows_of(4);  // the narrowest width in use

/// Scalar bits [bit, bit + w), zero above bit 255.
inline int bits_at(const u64 k[4], int bit, int w) {
  const int limb = bit >> 6;
  const int off = bit & 63;
  u64 v = k[limb] >> off;
  if (off + w > 64 && limb < 3) v |= k[limb + 1] << (64 - off);
  return static_cast<int>(v & ((u64{1} << w) - 1));
}

/// Recodes k mod n into windows_of(w) signed w-bit digits, least
/// significant first: k*B = sum_j digit[j] * 2^(wj) * B, each digit in
/// [-(2^(w-1) - 1), 2^(w-1)]. A scalar at or above 2^255 is first folded
/// to n - k and every digit's sign flipped (k*B = -((n - k)*B)), so the
/// top window's bits stay below 2^(w-1) and no carry leaves it.
void recode_signed(const U256& k, int w, int digit[kMaxWindows]) {
  u64 v[4];
  copy4(v, k.w);
  if (geq4(v, kN)) sub4(v, v, kN);
  const bool negate = (v[3] >> 63) != 0;
  if (negate) sub4(v, kN, v);
  const int half = 1 << (w - 1);
  int carry = 0;
  for (int j = 0; j < windows_of(w); ++j) {
    int d = bits_at(v, j * w, w) + carry;
    carry = d > half ? 1 : 0;
    d -= carry << w;
    digit[j] = negate ? -d : d;
  }
}

/// row[d - 1] = d * b for d = 1..len: the base, one doubling, then mixed
/// additions of the base.
void build_row(const AffPt& b, int len, JacPt* row) {
  copy4(row[0].x, b.x);
  copy4(row[0].y, b.y);
  copy4(row[0].z, mont_p().one);
  pt_double(row[0], row[1]);
  for (int d = 2; d < len; ++d) pt_add_affine(row[d - 1], b, row[d]);
}

/// acc += d * b for a signed digit d, where row[i] = (i + 1) * b: a
/// negative digit adds the entry's negation (x, p - y).
inline void add_signed(JacPt& acc, const AffPt* row, int d) {
  if (d > 0) {
    pt_add_affine(acc, row[d - 1], acc);
  } else if (d < 0) {
    AffPt neg = row[-d - 1];
    sub4(neg.y, kP, neg.y);
    pt_add_affine(acc, neg, acc);
  }
}

/// x(R) mod n == r for R = acc, false at infinity. Compares X against
/// r~ * Z^2 for r~ in {r, r + n} with r~ < p: the projective form skips
/// the field inversion that would otherwise dominate a verify.
bool r_matches(const JacPt& acc, const U256& r) {
  if (is_zero4(acc.z)) return false;
  const Mont& m = mont_p();
  u64 zz[4], rm[4], cand[4];
  mont_sqr_p(acc.z, zz);
  to_mont(m, r.w, rm);
  mont_mul_p(rm, zz, cand);
  if (eq4(cand, acc.x)) return true;
  u64 rn[4];
  if (add4(rn, r.w, kN) == 0 && !geq4(rn, kP)) {
    to_mont(m, rn, rm);
    mont_mul_p(rm, zz, cand);
    if (eq4(cand, acc.x)) return true;
  }
  return false;
}

}  // namespace

U256 from_bytes_be(BytesView be) {
  U256 a;
  if (be.size() != kFieldSize) return a;
  for (int i = 0; i < 4; ++i) {
    u64 limb = 0;
    for (int j = 0; j < 8; ++j) {
      limb = (limb << 8) | be[static_cast<std::size_t>((3 - i) * 8 + j)];
    }
    a.w[i] = limb;
  }
  return a;
}

Bytes to_bytes_be(const U256& a) {
  Bytes out(kFieldSize);
  for (int i = 0; i < 4; ++i) {
    const u64 limb = a.w[3 - i];
    for (int j = 0; j < 8; ++j) {
      out[static_cast<std::size_t>(i * 8 + j)] =
          static_cast<std::uint8_t>(limb >> ((7 - j) * 8));
    }
  }
  return out;
}

bool u256_less(const U256& a, const U256& b) { return !geq4(a.w, b.w); }

const U256& order_n() {
  static const U256 n = [] {
    U256 v;
    copy4(v.w, kN);
    return v;
  }();
  return n;
}

const U256& prime_p() {
  static const U256 p = [] {
    U256 v;
    copy4(v.w, kP);
    return v;
  }();
  return p;
}

U256 reduce_mod_n(const U256& a) {
  U256 out = a;
  if (geq4(out.w, kN)) sub4(out.w, out.w, kN);
  return out;
}

U256 add_mod_n(const U256& a, const U256& b) {
  U256 out;
  mod_add(mont_n(), a.w, b.w, out.w);
  return out;
}

U256 mul_mod_n(const U256& a, const U256& b) {
  // One Montgomery product gives a*b*R^-1; a second against R^2 strips
  // the stray R^-1 without converting either operand first.
  const Mont& m = mont_n();
  U256 out;
  u64 t[4];
  mont_mul(m, a.w, b.w, t);
  mont_mul(m, t, m.rr, out.w);
  return out;
}

U256 inv_mod_n(const U256& a) {
  const Mont& m = mont_n();
  U256 out;
  u64 am[4], t[4];
  to_mont(m, a.w, am);
  mont_inv(m, am, t);
  from_mont(m, t, out.w);
  return out;
}

namespace {

// ---- Bernstein-Yang division-step inversion mod n ----------------------
//
// The obvious binary extended Euclid decides swap/subtract/halve from
// full-width comparisons, so a fresh input costs hundreds of
// unpredictable branches -- measured ~8-10 us per inversion on the
// verify path, dwarfing the point arithmetic it feeds. The divstep
// formulation ("Fast constant-time gcd computation and modular
// inversion", Bernstein & Yang, CHES 2019) replaces every comparison
// with a sign counter whose decisions depend ONLY on the low bits, so 62
// steps at a time run on single 64-bit words and the multi-precision
// state is touched once per batch through a 2x2 integer transition
// matrix. The theorem behind it: 741 divsteps always suffice for
// 256-bit inputs; this variable-time variant just stops as soon as g
// hits zero (s is public in every caller).

using i64 = std::int64_t;
using i128 = __int128;
using u128 = unsigned __int128;

constexpr u64 kMask62 = (u64{1} << 62) - 1;

/// 256-bit signed value in 5 limbs of 62 bits (low 4 canonical in
/// [0, 2^62), top limb carries the sign).
struct S62 {
  i64 v[5];
};

S62 s62_from_u256(const u64 a[4]) {
  S62 out;
  out.v[0] = static_cast<i64>(a[0] & kMask62);
  out.v[1] = static_cast<i64>(((a[0] >> 62) | (a[1] << 2)) & kMask62);
  out.v[2] = static_cast<i64>(((a[1] >> 60) | (a[2] << 4)) & kMask62);
  out.v[3] = static_cast<i64>(((a[2] >> 58) | (a[3] << 6)) & kMask62);
  out.v[4] = static_cast<i64>(a[3] >> 56);
  return out;
}

void s62_to_u256(const S62& a, u64 out[4]) {
  const u64 v0 = static_cast<u64>(a.v[0]);
  const u64 v1 = static_cast<u64>(a.v[1]);
  const u64 v2 = static_cast<u64>(a.v[2]);
  const u64 v3 = static_cast<u64>(a.v[3]);
  const u64 v4 = static_cast<u64>(a.v[4]);
  out[0] = v0 | (v1 << 62);
  out[1] = (v1 >> 2) | (v2 << 60);
  out[2] = (v2 >> 4) | (v3 << 58);
  out[3] = (v3 >> 6) | (v4 << 56);
}

bool s62_is_zero(const S62& a) {
  return (a.v[0] | a.v[1] | a.v[2] | a.v[3] | a.v[4]) == 0;
}

bool s62_is_neg(const S62& a) { return a.v[4] < 0; }

void s62_negate(S62& a) {
  i64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const i64 t = -a.v[i] + borrow;
    a.v[i] = t & static_cast<i64>(kMask62);
    borrow = t >> 62;
  }
  a.v[4] |= borrow << 62;
}

/// a += sign * n, in-place; used only for the final normalization.
void s62_add_n(S62& a, i64 sign, const S62& n) {
  i64 carry = 0;
  for (int i = 0; i < 5; ++i) {
    const i64 t = a.v[i] + sign * n.v[i] + carry;
    a.v[i] = t & static_cast<i64>(kMask62);
    carry = t >> 62;
  }
  a.v[4] |= carry << 62;  // top limb keeps the sign
}

/// 62 divsteps on the low words, returning the scaled transition matrix
/// [u v; q r] with entries bounded by 2^62. Maintains, against the
/// full-precision f and g the caller holds:
///   u*f0 + v*g0 == f_new * 2^62,   q*f0 + r*g0 == g_new * 2^62.
/// Decisions depend only on delta and the low 62 bits, which is what
/// makes the batch sound; runs of trailing zeros in g collapse into one
/// shift via ctz instead of one badly-predicted branch per bit.
void divsteps62(i64& delta, u64 f0, u64 g0, i64 t[4]) {
  u64 u = 1, v = 0, q = 0, r = 1;  // two's complement; signed at the end
  u64 f = f0, g = g0;
  int i = 62;
  for (;;) {
    int zeros = (g == 0) ? i : __builtin_ctzll(g);
    if (zeros > i) zeros = i;
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    delta += zeros;
    i -= zeros;
    if (i == 0) break;
    // g is odd here.
    if (delta > 0) {
      delta = 1 - delta;
      const u64 of = f, ou = u, ov = v;
      f = g;
      g = (g - of) >> 1;
      u = q << 1;
      v = r << 1;
      q -= ou;
      r -= ov;
    } else {
      delta = 1 + delta;
      g = (g + f) >> 1;
      q += u;
      r += v;
      u <<= 1;
      v <<= 1;
    }
    --i;
  }
  t[0] = static_cast<i64>(u);
  t[1] = static_cast<i64>(v);
  t[2] = static_cast<i64>(q);
  t[3] = static_cast<i64>(r);
}

/// (f, g) <- (u*f + v*g, q*f + r*g) / 2^62; the division is exact by
/// construction of the matrix.
void update_fg(S62& f, S62& g, const i64 t[4]) {
  i128 cf = 0, cg = 0;
  cf += static_cast<i128>(t[0]) * f.v[0] + static_cast<i128>(t[1]) * g.v[0];
  cg += static_cast<i128>(t[2]) * f.v[0] + static_cast<i128>(t[3]) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < 5; ++i) {
    cf += static_cast<i128>(t[0]) * f.v[i] + static_cast<i128>(t[1]) * g.v[i];
    cg += static_cast<i128>(t[2]) * f.v[i] + static_cast<i128>(t[3]) * g.v[i];
    f.v[i - 1] = static_cast<i64>(static_cast<u64>(cf) & kMask62);
    g.v[i - 1] = static_cast<i64>(static_cast<u64>(cg) & kMask62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<i64>(cf);
  g.v[4] = static_cast<i64>(cg);
}

/// (d, e) <- (u*d + v*e, q*d + r*e) / 2^62 (mod n): the low 62 bits are
/// cancelled by adding the right multiple of n (n odd), exactly the
/// Montgomery reduction step, so the division is again exact.
void update_de(S62& d, S62& e, const i64 t[4], const S62& n, u64 n0inv62) {
  i128 cd = static_cast<i128>(t[0]) * d.v[0] + static_cast<i128>(t[1]) * e.v[0];
  i128 ce = static_cast<i128>(t[2]) * d.v[0] + static_cast<i128>(t[3]) * e.v[0];
  const u64 md = (static_cast<u64>(cd) * n0inv62) & kMask62;
  const u64 me = (static_cast<u64>(ce) * n0inv62) & kMask62;
  cd += static_cast<i128>(md) * n.v[0];
  ce += static_cast<i128>(me) * n.v[0];
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t[0]) * d.v[i] + static_cast<i128>(t[1]) * e.v[i];
    ce += static_cast<i128>(t[2]) * d.v[i] + static_cast<i128>(t[3]) * e.v[i];
    cd += static_cast<i128>(md) * n.v[i];
    ce += static_cast<i128>(me) * n.v[i];
    d.v[i - 1] = static_cast<i64>(static_cast<u64>(cd) & kMask62);
    e.v[i - 1] = static_cast<i64>(static_cast<u64>(ce) & kMask62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<i64>(cd);
  e.v[4] = static_cast<i64>(ce);
}

}  // namespace

U256 inv_mod_n_vartime(const U256& a) {
  if (a.is_zero()) return U256{};
  static const S62 n62 = s62_from_u256(kN);
  // -n^-1 mod 2^62 (same Newton iteration as make_mont, masked to 62
  // bits), computed once.
  static const u64 n0inv62 = [] {
    u64 inv = kN[0];
    for (int i = 0; i < 6; ++i) inv *= 2 - kN[0] * inv;
    return (~inv + 1) & kMask62;
  }();
  // Invariants (mod n): f == d * a and g == e * a. Start f = n == 0 * a,
  // g = a == 1 * a; when g reaches zero, f holds gcd(a, n) * sign, i.e.
  // +-1 since n is prime, and d is the matching +-a^-1.
  S62 f = n62;
  S62 g = s62_from_u256(a.w);
  S62 d{{0, 0, 0, 0, 0}};
  S62 e{{1, 0, 0, 0, 0}};
  i64 delta = 1;
  // 741 divsteps always suffice for 256-bit inputs (Bernstein-Yang
  // theorem 11.2), i.e. 12 batches; the cap is pure defensiveness.
  for (int iter = 0; iter < 24 && !s62_is_zero(g); ++iter) {
    i64 t[4];
    const u64 f0 =
        static_cast<u64>(f.v[0]) | (static_cast<u64>(f.v[1]) << 62);
    const u64 g0 =
        static_cast<u64>(g.v[0]) | (static_cast<u64>(g.v[1]) << 62);
    divsteps62(delta, f0, g0, t);
    update_fg(f, g, t);
    update_de(d, e, t, n62, n0inv62);
  }
  // f ended at -gcd when the last swap left it negative; flip d to
  // match, then fold d -- bounded by a small multiple of n, since it
  // gains at most one modulus per batch -- into [0, n).
  if (s62_is_neg(f)) s62_negate(d);
  while (s62_is_neg(d)) s62_add_n(d, 1, n62);
  U256 out;
  for (;;) {
    u64 w[4];
    s62_to_u256(d, w);
    if ((d.v[4] >> 8) == 0 && !geq4(w, kN)) {
      copy4(out.w, w);
      break;
    }
    s62_add_n(d, -1, n62);
  }
  return out;
}

const AffinePoint& generator() {
  static const AffinePoint g = [] {
    AffinePoint v;
    copy4(v.x.w, kGx);
    copy4(v.y.w, kGy);
    v.infinity = false;
    return v;
  }();
  return g;
}

bool on_curve(const AffinePoint& point) {
  if (point.infinity) return false;
  if (!u256_less(point.x, prime_p()) || !u256_less(point.y, prime_p())) {
    return false;
  }
  const Mont& m = mont_p();
  u64 x[4], y[4], lhs[4], rhs[4], t[4];
  to_mont(m, point.x.w, x);
  to_mont(m, point.y.w, y);
  mont_mul(m, y, y, lhs);
  mont_mul(m, x, x, rhs);
  mont_mul(m, rhs, x, rhs);  // x^3
  mod_add(m, x, x, t);
  mod_add(m, t, x, t);  // 3x
  mod_sub(m, rhs, t, rhs);
  to_mont(m, kB, t);
  mod_add(m, rhs, t, rhs);
  return eq4(lhs, rhs);
}

AffinePoint scalar_mul(const AffinePoint& base, const U256& k) {
  if (base.infinity || k.is_zero()) return AffinePoint{};
  const Mont& m = mont_p();
  AffPt b;
  to_mont(m, base.x.w, b.x);
  to_mont(m, base.y.w, b.y);
  JacPt acc = jac_infinity();
  for (int i = 255; i >= 0; --i) {
    pt_double(acc, acc);
    if ((k.w[i / 64] >> (i % 64)) & 1u) pt_add_affine(acc, b, acc);
  }
  return jac_to_plain_affine(acc);
}

AffinePoint point_add(const AffinePoint& a, const AffinePoint& b) {
  if (a.infinity) return b;
  if (b.infinity) return a;
  JacPt ja = jac_from_plain_affine(a);
  const JacPt jb = jac_from_plain_affine(b);
  pt_add(ja, jb, ja);
  return jac_to_plain_affine(ja);
}

struct WindowTable::Impl {
  int w = 0;
  std::vector<AffPt> pts;  // row j at pts[j * 2^(w-1)]: d * 2^(wj) * base

  const AffPt* row(int j) const {
    return pts.data() + (static_cast<std::size_t>(j) << (w - 1));
  }

  /// Loads every entry a walk over `digit` will touch. The walk is a
  /// serial dependency chain, so issuing the loads up front hides a cold
  /// table's cache misses behind the arithmetic.
  void prefetch(const int digit[]) const {
    for (int j = 0; j < windows_of(w); ++j) {
      if (digit[j] != 0) __builtin_prefetch(&row(j)[std::abs(digit[j]) - 1]);
    }
  }

  /// acc += k * base for k's digits: one mixed addition per non-zero
  /// digit and no doublings.
  void add(JacPt& acc, const int digit[]) const {
    for (int j = 0; j < windows_of(w); ++j) add_signed(acc, row(j), digit[j]);
  }
};

namespace {

/// The generator's 12-bit table, shared by every caller in the process
/// and built on first use.
const WindowTable& generator_table() {
  static const WindowTable table(generator(),
                                 WindowTable::kGeneratorWindowBits);
  return table;
}

}  // namespace

WindowTable::WindowTable(const AffinePoint& base, int window_bits)
    : impl_(new Impl) {
  if (window_bits < kKeyWindowBits || window_bits > kGeneratorWindowBits) {
    throw std::invalid_argument("WindowTable: window_bits out of range");
  }
  const int rows = windows_of(window_bits);
  const int row_len = 1 << (window_bits - 1);
  const std::size_t count = static_cast<std::size_t>(rows) * row_len;
  // Window bases 2^(wj) * base by w doublings each, normalized together
  // so that every row below is built from an affine base.
  std::vector<JacPt> jac(count);
  jac[0] = jac_from_plain_affine(base);
  for (int j = 1; j < rows; ++j) {
    jac[j] = jac[j - 1];
    for (int i = 0; i < window_bits; ++i) pt_double(jac[j], jac[j]);
  }
  std::vector<AffPt> bases(static_cast<std::size_t>(rows));
  batch_normalize(jac.data(), bases.size(), bases.data());
  // The rows overwrite the Jacobian bases; one batch normalization (one
  // field inversion) then serves the whole table.
  for (int j = 0; j < rows; ++j) {
    build_row(bases[static_cast<std::size_t>(j)], row_len,
              &jac[static_cast<std::size_t>(j) * row_len]);
  }
  impl_->w = window_bits;
  impl_->pts.resize(count);
  batch_normalize(jac.data(), count, impl_->pts.data());
}

WindowTable::~WindowTable() = default;
WindowTable::WindowTable(WindowTable&&) noexcept = default;
WindowTable& WindowTable::operator=(WindowTable&&) noexcept = default;

AffinePoint table_scalar_mul(const WindowTable& table, const U256& k) {
  int digit[kMaxWindows];
  recode_signed(k, table.impl_->w, digit);
  JacPt acc = jac_infinity();
  table.impl_->add(acc, digit);
  return jac_to_plain_affine(acc);
}

AffinePoint scalar_mul_base(const U256& k) {
  return table_scalar_mul(generator_table(), k);
}

bool verify_r_match(const WindowTable& q_table, const U256& u1,
                    const U256& u2, const U256& r) {
  const WindowTable::Impl& g = *generator_table().impl_;
  const WindowTable::Impl& q = *q_table.impl_;
  int d1[kMaxWindows], d2[kMaxWindows];
  recode_signed(u1, g.w, d1);
  recode_signed(u2, q.w, d2);
  g.prefetch(d1);
  q.prefetch(d2);
  // u1*G through the shared generator table (<= 22 additions), u2*Q
  // through the per-key table (<= 64); both fold into one accumulator.
  JacPt acc = jac_infinity();
  g.add(acc, d1);
  q.add(acc, d2);
  return r_matches(acc, r);
}

bool verify_r_match(const AffinePoint& q, const U256& u1, const U256& u2,
                    const U256& r) {
  const WindowTable::Impl& g = *generator_table().impl_;
  int d1[kMaxWindows], d2[kMaxWindows];
  recode_signed(u1, g.w, d1);
  recode_signed(u2, WindowTable::kKeyWindowBits, d2);
  g.prefetch(d1);
  // A per-call row of 1..8 x Q, in affine form for mixed additions.
  constexpr int kRowLen = 1 << (WindowTable::kKeyWindowBits - 1);
  const Mont& m = mont_p();
  AffPt base;
  to_mont(m, q.x.w, base.x);
  to_mont(m, q.y.w, base.y);
  JacPt jac[kRowLen];
  build_row(base, kRowLen, jac);
  AffPt row[kRowLen];
  batch_normalize(jac, kRowLen, row);
  // u2*Q by Horner over the same signed digits, top window first: four
  // doublings per window, then one mixed addition. u1*G joins after the
  // last doubling.
  JacPt acc = jac_infinity();
  for (int j = windows_of(WindowTable::kKeyWindowBits); j-- > 0;) {
    for (int i = 0; i < WindowTable::kKeyWindowBits; ++i) pt_double(acc, acc);
    add_signed(acc, row, d2[j]);
  }
  g.add(acc, d1);
  return r_matches(acc, r);
}

}  // namespace tp::crypto::p256
