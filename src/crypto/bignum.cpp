#include "crypto/bignum.h"

#include <algorithm>
#include <stdexcept>

namespace tp::crypto {

namespace {
constexpr std::uint64_t kBase = 1ull << 32;

/// v's 32-bit limbs packed into n 64-bit limbs (v must fit).
void pack_limbs64(const BigInt& v, std::uint64_t* out, std::size_t n) {
  const auto& l = v.limbs();
  std::fill_n(out, n, std::uint64_t{0});
  for (std::size_t i = 0; i < l.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(l[i]) << (32 * (i % 2));
  }
}
}  // namespace

BigInt::BigInt(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigInt::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_limbs(std::vector<std::uint32_t> limbs) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.normalize();
  return out;
}

BigInt BigInt::from_bytes_be(BytesView bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    // byte i (from the big end) contributes to limb (n-1-i)/4.
    const std::size_t pos = bytes.size() - 1 - i;  // little-endian byte index
    out.limbs_[pos / 4] |= static_cast<std::uint32_t>(bytes[i])
                           << (8 * (pos % 4));
  }
  out.normalize();
  return out;
}

BigInt BigInt::from_hex(const std::string& hex) {
  std::string h = hex;
  if (h.size() % 2 != 0) h.insert(h.begin(), '0');
  return from_bytes_be(tp::from_hex(h));
}

Bytes BigInt::to_bytes_be(std::size_t min_len) const {
  Bytes out;
  const std::size_t byte_len = (bit_length() + 7) / 8;
  const std::size_t total = std::max(byte_len, min_len);
  out.assign(total, 0);
  for (std::size_t i = 0; i < byte_len; ++i) {
    out[total - 1 - i] = static_cast<std::uint8_t>(
        limbs_[i / 4] >> (8 * (i % 4)));
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "00";
  return tp::to_hex(to_bytes_be());
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

void BigInt::set_bit(std::size_t i) {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) limbs_.resize(limb + 1, 0);
  limbs_[limb] |= (1u << (i % 32));
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& other) const {
  std::vector<std::uint32_t> out(std::max(limbs_.size(), other.limbs_.size()) +
                                 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < other.limbs_.size()) sum += other.limbs_[i];
    out[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  return from_limbs(std::move(out));
}

BigInt BigInt::operator-(const BigInt& other) const {
  if (*this < other) {
    throw std::domain_error("BigInt: subtraction underflow (unsigned domain)");
  }
  std::vector<std::uint32_t> out(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < other.limbs_.size()) {
      diff -= static_cast<std::int64_t>(other.limbs_[i]);
    }
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<std::uint32_t>(diff);
  }
  return from_limbs(std::move(out));
}

BigInt BigInt::operator*(const BigInt& other) const {
  if (is_zero() || other.is_zero()) return BigInt();
  std::vector<std::uint32_t> out(limbs_.size() + other.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < other.limbs_.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out[i + j]) + a * other.limbs_[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + other.limbs_.size();
    while (carry != 0) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out[k]) + carry;
      out[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  return from_limbs(std::move(out));
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero()) return BigInt();
  if (bits == 0) return *this;
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  std::vector<std::uint32_t> out(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  return from_limbs(std::move(out));
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  std::vector<std::uint32_t> out(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::uint64_t v =
        static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out[i] = static_cast<std::uint32_t>(v);
  }
  return from_limbs(std::move(out));
}

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt: division by zero");
  if (*this < divisor) return {BigInt(), *this};

  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    std::vector<std::uint32_t> q(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    return {from_limbs(std::move(q)), BigInt(rem)};
  }

  // Knuth algorithm D. Normalize so the divisor's top limb has its high
  // bit set.
  const std::size_t shift = 32 - (divisor.bit_length() % 32 == 0
                                      ? 32
                                      : divisor.bit_length() % 32);
  const BigInt u = *this << shift;
  const BigInt v = divisor << shift;
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // extra high limb for the algorithm
  const std::vector<std::uint32_t>& vn = v.limbs_;
  std::vector<std::uint32_t> q(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t top =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = top / vn[n - 1];
    std::uint64_t rhat = top % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    // After the adjustment loop qhat is q or q+1; qhat == kBase is only
    // possible when q == kBase-1, so clamping is exact and keeps the
    // 64-bit products below 2^64.
    if (qhat >= kBase) qhat = kBase - 1;

    // Multiply and subtract: un[j..j+n] -= qhat * vn.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t = static_cast<std::int64_t>(un[i + j]) -
                             static_cast<std::int64_t>(p & 0xffffffffull) -
                             borrow;
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = (t < 0) ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    un[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add the divisor back.
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + c);
    }
    q[j] = static_cast<std::uint32_t>(qhat);
  }

  un.resize(n);
  BigInt remainder = from_limbs(std::move(un)) >> shift;
  return {from_limbs(std::move(q)), std::move(remainder)};
}

BigInt BigInt::operator/(const BigInt& divisor) const {
  return divmod(divisor).first;
}

BigInt BigInt::operator%(const BigInt& divisor) const {
  return divmod(divisor).second;
}

BigInt BigInt::mod_mul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b) % m;
}

MontgomeryCtx::MontgomeryCtx(const BigInt& m)
    : n_((m.bit_length() + 63) / 64) {
  if (m.is_even() || m < BigInt(3)) {
    throw std::domain_error("MontgomeryCtx: modulus must be odd and >= 3");
  }
  if (m.bit_length() > kMaxBits) {
    throw std::domain_error("MontgomeryCtx: modulus exceeds kMaxBits");
  }
  m64_.resize(n_);
  pack_limbs64(m, m64_.data(), n_);

  // n0inv = -m^{-1} mod 2^64 via Newton iteration on the 2-adic inverse
  // (each step doubles the correct low bits: 1 -> 64 in six steps).
  Limb inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m64_[0] * inv;
  n0inv_ = ~inv + 1;  // negate mod 2^64

  // R^2 mod m where R = 2^(64 n).
  const BigInt r = (BigInt(1) << (64 * n_)) % m;
  r2_.resize(n_);
  pack_limbs64((r * r) % m, r2_.data(), n_);
}

BigInt MontgomeryCtx::modulus() const { return to_bigint(m64_.data()); }

bool MontgomeryCtx::below_modulus(const BigInt& v) const {
  const auto& l = v.limbs();
  if (l.size() > 2 * n_) return false;
  Limb w[kMaxLimbs];
  pack_limbs64(v, w, n_);
  for (std::size_t i = n_; i-- > 0;) {
    if (w[i] != m64_[i]) return w[i] < m64_[i];
  }
  return false;
}

std::size_t MontgomeryCtx::memory_bytes() const {
  return (m64_.size() + r2_.size()) * sizeof(Limb);
}

void MontgomeryCtx::mul(const Limb* a, const Limb* b, Limb* out) const {
  using u128 = unsigned __int128;
  const std::size_t n = n_;
  const Limb* m = m64_.data();
  // t < 2m after every outer step, so n + 1 limbs hold it.
  Limb t[kMaxLimbs + 1] = {};
  for (std::size_t i = 0; i < n; ++i) {
    // One fused pass per limb of a: t = (t + a[i] * b + u * m) / 2^64,
    // with u chosen so the low limb vanishes. Two carry chains, each
    // below 2^64 since (2^64 - 1)^2 + 2 (2^64 - 1) < 2^128.
    const Limb ai = a[i];
    u128 p = static_cast<u128>(ai) * b[0] + t[0];
    Limb c1 = static_cast<Limb>(p >> 64);
    const Limb u = static_cast<Limb>(p) * n0inv_;
    u128 q = static_cast<u128>(u) * m[0] + static_cast<Limb>(p);
    Limb c2 = static_cast<Limb>(q >> 64);
    for (std::size_t j = 1; j < n; ++j) {
      p = static_cast<u128>(ai) * b[j] + t[j] + c1;
      c1 = static_cast<Limb>(p >> 64);
      q = static_cast<u128>(u) * m[j] + static_cast<Limb>(p) + c2;
      c2 = static_cast<Limb>(q >> 64);
      t[j - 1] = static_cast<Limb>(q);
    }
    const u128 top = static_cast<u128>(t[n]) + c1 + c2;
    t[n - 1] = static_cast<Limb>(top);
    t[n] = static_cast<Limb>(top >> 64);
  }

  // Conditional final subtraction: out = t - m when t >= m.
  Limb d[kMaxLimbs] = {};
  Limb borrow = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const u128 diff = static_cast<u128>(t[j]) - m[j] - borrow;
    d[j] = static_cast<Limb>(diff);
    borrow = static_cast<Limb>(diff >> 64) & 1;
  }
  const Limb* src = (t[n] != 0 || borrow == 0) ? d : t;
  std::copy_n(src, n, out);
}

void MontgomeryCtx::to_mont(const BigInt& v, Limb* out) const {
  pack_limbs64(v, out, n_);
  mul(out, r2_.data(), out);
}

BigInt MontgomeryCtx::from_mont(const Limb* a) const {
  Limb one[kMaxLimbs] = {1};
  Limb plain[kMaxLimbs] = {};
  mul(a, one, plain);
  return to_bigint(plain);
}

BigInt MontgomeryCtx::to_bigint(const Limb* a) const {
  std::vector<std::uint32_t> limbs(2 * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    limbs[2 * i] = static_cast<std::uint32_t>(a[i]);
    limbs[2 * i + 1] = static_cast<std::uint32_t>(a[i] >> 32);
  }
  return BigInt::from_limbs(std::move(limbs));
}

BigInt MontgomeryCtx::pow_small(const Limb* base_mont,
                                const BigInt& exp) const {
  // Left-to-right square-and-multiply: for a k-bit exponent, k-1
  // squarings plus one multiply per set bit, and no table precompute.
  // At e = 65537 that is 17 muls vs the windowed path's ~40.
  Limb acc[kMaxLimbs] = {};
  std::copy_n(base_mont, n_, acc);
  for (std::size_t i = exp.bit_length() - 1; i-- > 0;) {
    mul(acc, acc, acc);
    if (exp.bit(i)) mul(acc, base_mont, acc);
  }
  return from_mont(acc);
}

BigInt MontgomeryCtx::pow_windowed(const Limb* base_mont,
                                   const BigInt& exp) const {
  // 4-bit fixed windows: b^0..b^15 precomputed in Montgomery form.
  Limb table[16][kMaxLimbs] = {};
  Limb one[kMaxLimbs] = {1};
  mul(one, r2_.data(), table[0]);  // 1 in Montgomery form (R mod m)
  std::copy_n(base_mont, n_, table[1]);
  for (std::size_t i = 2; i < 16; ++i) {
    mul(table[i - 1], base_mont, table[i]);
  }

  const std::size_t windows = (exp.bit_length() + 3) / 4;
  Limb acc[kMaxLimbs] = {};
  std::copy_n(table[0], n_, acc);
  for (std::size_t w = windows; w-- > 0;) {
    for (int s = 0; s < 4; ++s) mul(acc, acc, acc);
    std::size_t idx = 0;
    for (int s = 3; s >= 0; --s) {
      idx = (idx << 1) |
            (exp.bit(w * 4 + static_cast<std::size_t>(s)) ? 1u : 0u);
    }
    if (idx != 0) mul(acc, table[idx], acc);
  }
  return from_mont(acc);
}

BigInt MontgomeryCtx::mod_exp(const BigInt& base, const BigInt& exp) const {
  if (exp.is_zero()) return BigInt(1);
  if (!below_modulus(base)) return mod_exp(base % modulus(), exp);
  Limb base_mont[kMaxLimbs] = {};
  to_mont(base, base_mont);
  return exp.bit_length() <= kSmallExpBits ? pow_small(base_mont, exp)
                                           : pow_windowed(base_mont, exp);
}

BigInt MontgomeryCtx::mod_exp_windowed(const BigInt& base,
                                       const BigInt& exp) const {
  if (exp.is_zero()) return BigInt(1);
  if (!below_modulus(base)) return mod_exp_windowed(base % modulus(), exp);
  Limb base_mont[kMaxLimbs] = {};
  to_mont(base, base_mont);
  return pow_windowed(base_mont, exp);
}

BigInt BigInt::mod_exp(const BigInt& base, const BigInt& exp,
                       const BigInt& m) {
  if (m.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (m == BigInt(1)) return BigInt();
  if (exp.is_zero()) return BigInt(1);

  const BigInt b = base % m;

  if (m.is_odd() && m.bit_length() <= MontgomeryCtx::kMaxBits) {
    return MontgomeryCtx(m).mod_exp(b, exp);
  }

  // Even modulus, or one beyond the Montgomery kernel's capacity (never
  // an RSA case here: parsers bound moduli to kMaxBits): plain
  // square-and-multiply.
  BigInt result(1);
  BigInt cur = b;
  for (std::size_t i = 0; i < exp.bit_length(); ++i) {
    if (exp.bit(i)) result = (result * cur) % m;
    cur = (cur * cur) % m;
  }
  return result;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking coefficients as (value, negative?) pairs to
  // stay in the unsigned domain.
  if (m.is_zero()) throw std::domain_error("mod_inverse: zero modulus");
  BigInt r0 = m, r1 = a % m;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;

  while (!r1.is_zero()) {
    const auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q * t1 with sign tracking.
    const BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = t2;
    t1_neg = t2_neg;
  }

  if (r0 != BigInt(1)) return BigInt();  // not invertible
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::random_below(
    const BigInt& bound,
    const std::function<Bytes(std::size_t)>& random_bytes) {
  if (bound.is_zero()) {
    throw std::invalid_argument("random_below: zero bound");
  }
  const std::size_t bits = bound.bit_length();
  const std::size_t bytes = (bits + 7) / 8;
  // Rejection sampling with the top byte masked to the bound's width.
  const unsigned top_bits = static_cast<unsigned>(bits % 8 == 0 ? 8 : bits % 8);
  const std::uint8_t mask = static_cast<std::uint8_t>((1u << top_bits) - 1);
  for (;;) {
    Bytes buf = random_bytes(bytes);
    buf[0] &= mask;
    BigInt candidate = from_bytes_be(buf);
    if (candidate < bound) return candidate;
  }
}

bool BigInt::is_probable_prime(
    const BigInt& n, int rounds,
    const std::function<Bytes(std::size_t)>& random_bytes) {
  if (n < BigInt(2)) return false;
  // Trial division by small primes screens out most candidates cheaply.
  static constexpr std::uint32_t kSmallPrimes[] = {
      2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,
      43,  47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101,
      103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167,
      173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
      241, 251};
  for (std::uint32_t p : kSmallPrimes) {
    const BigInt bp(p);
    if (n == bp) return true;
    if ((n % bp).is_zero()) return false;
  }

  // Write n-1 = d * 2^s with d odd.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (d.is_even()) {
    d = d >> 1;
    ++s;
  }

  const BigInt two(2);
  for (int round = 0; round < rounds; ++round) {
    // Base a in [2, n-2].
    const BigInt a =
        random_below(n - BigInt(3), random_bytes) + two;
    BigInt x = mod_exp(a, d, n);
    if (x == BigInt(1) || x == n_minus_1) continue;
    bool composite = true;
    for (std::size_t i = 1; i < s; ++i) {
      x = mod_mul(x, x, n);
      if (x == n_minus_1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(
    std::size_t bits, const std::function<Bytes(std::size_t)>& random_bytes) {
  if (bits < 16) throw std::invalid_argument("generate_prime: bits < 16");
  for (;;) {
    Bytes buf = random_bytes((bits + 7) / 8);
    BigInt candidate = from_bytes_be(buf);
    // Clamp to exactly `bits` bits, top two bits set, odd.
    for (std::size_t i = candidate.bit_length(); i > bits; --i) {
      // Clear any excess: rebuild via shift.
      candidate = candidate >> (candidate.bit_length() - bits);
    }
    candidate.set_bit(bits - 1);
    candidate.set_bit(bits - 2);
    candidate.set_bit(0);
    if (candidate.bit_length() != bits) continue;
    if (is_probable_prime(candidate, 24, random_bytes)) return candidate;
  }
}

}  // namespace tp::crypto
