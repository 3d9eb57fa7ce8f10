// TPM 1.2 device emulator.
//
// Implements the command subset the trusted path depends on -- PCR
// extend/read/reset, GetRandom, Quote, Seal/Unseal, CreateWrapKey/
// LoadKey2/Sign, monotonic counters and NVRAM -- with the v1.2 semantics
// that matter for security: PCR-bound release policies, locality checks,
// and AIK-rooted quoting. Every command charges its chip-profile cost to
// the virtual clock, which is how the latency experiments reproduce the
// paper's numbers.
//
// Emulation note on sealed storage: the real chip protects seal blobs and
// wrapped keys with its RSA storage hierarchy (SRK). The emulator derives
// AES-256 + HMAC keys from an SRK seed that never leaves the device
// object. The trust property is identical -- only this TPM instance can
// unseal what it sealed -- while keeping blobs compact and the code
// auditable.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "tpm/chip_profile.h"
#include "tpm/pcr.h"
#include "tpm/quote.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/sim_clock.h"

namespace tp::tpm {

/// Static facts a TPM_GetCapability query reports.
struct TpmCapabilities {
  std::uint32_t spec_version_major;
  std::uint32_t spec_version_minor;
  std::string vendor;
  std::size_t num_pcrs;
  std::size_t max_nv_size;
  bool supports_locality_4;
};

class TpmDevice {
 public:
  struct Options {
    /// AIK / wrapped-key modulus size. 1024 keeps tests fast; use 2048 to
    /// mirror deployed configurations in benchmarks.
    std::size_t key_bits = 1024;
    /// Transient-fault model (disabled by default). When enabled, every
    /// fallible command may fault and be re-issued with backoff; see
    /// TpmFaultProfile.
    TpmFaultProfile faults{};
  };

  /// `seed` determines all device-internal randomness (SRK seed, AIK,
  /// RNG); `clock` receives the per-command latency charges.
  TpmDevice(const ChipProfile& profile, BytesView seed, SimClock& clock);
  TpmDevice(const ChipProfile& profile, BytesView seed, SimClock& clock,
            Options options);

  const ChipProfile& profile() const { return profile_; }
  const crypto::RsaPublicKey& aik_public() const { return aik_public_; }

  // ---- PCR commands -------------------------------------------------
  Result<Bytes> pcr_extend(Locality locality, std::uint32_t index,
                           BytesView digest);
  Result<Bytes> pcr_read(std::uint32_t index);
  Status pcr_reset(Locality locality, std::uint32_t index);
  /// Composite over live PCRs (free of charge: host-side helper).
  Result<Bytes> pcr_composite(const PcrSelection& selection) const;

  // ---- randomness ----------------------------------------------------
  Bytes get_random(std::size_t n);

  // ---- attestation ---------------------------------------------------
  /// Signs the current values of `selection` with the AIK, bound to the
  /// caller's fresh `external_data`.
  Result<QuoteResult> quote(BytesView external_data,
                            const PcrSelection& selection);

  // ---- sealed storage -------------------------------------------------
  /// Seals `data` so it can only be released when the selected PCRs hold
  /// their *current* values and the caller is at a locality in
  /// `release_locality_mask` (bit i = locality i allowed).
  Result<Bytes> seal(Locality locality, const PcrSelection& selection,
                     std::uint8_t release_locality_mask, BytesView data);

  /// Seals with explicit release-time PCR values (TPM_Seal's
  /// digestAtRelease), so a blob can target a configuration that is not
  /// currently active -- the enrollment PAL uses this to pre-seal state
  /// for the confirmation PAL.
  Result<Bytes> seal_to(Locality locality, const PcrSelection& selection,
                        const std::vector<Bytes>& release_values,
                        std::uint8_t release_locality_mask, BytesView data);

  /// Releases sealed data iff the release policy matches the live PCRs
  /// and locality. Tamper -> kAuthFail; policy mismatch -> kPcrMismatch.
  Result<Bytes> unseal(Locality locality, BytesView blob);

  // ---- wrapped signing keys -------------------------------------------
  /// Creates an RSA signing key whose private half is wrapped by the SRK
  /// and whose use is bound to the *current* values of `selection`.
  Result<Bytes> create_wrap_key(const PcrSelection& selection);

  /// Loads a wrapped key; returns a transient handle.
  Result<std::uint32_t> load_key2(BytesView wrapped);

  Result<crypto::RsaPublicKey> key_public(std::uint32_t handle) const;

  /// RSASSA-PKCS1-v1_5(SHA-256) signature with a loaded key. The PCR use
  /// policy is evaluated *at signing time* (TPM 1.2 digestAtRelease
  /// semantics for keys).
  Result<Bytes> sign(std::uint32_t handle, BytesView message);

  void flush_key(std::uint32_t handle);

  // ---- ownership & authorization sessions --------------------------------
  //
  // TPM 1.2 protects privileged commands with rolling-nonce HMAC
  // authorization (OIAP). The owner proves knowledge of the owner secret
  // per command without sending it: auth = HMAC-SHA1(owner_secret,
  // param_digest || nonce_even || nonce_odd). The TPM rolls nonce_even
  // after every authorized command, so captured auth values cannot be
  // replayed.

  /// Installs the owner secret. Fails with kBadState if already owned.
  Status take_ownership(BytesView owner_auth_secret);
  bool owned() const { return owner_secret_.has_value(); }

  /// Opens an OIAP session; returns its handle. The session's current
  /// even nonce is read with oiap_nonce().
  Result<std::uint32_t> oiap_start();
  Result<Bytes> oiap_nonce(std::uint32_t session) const;

  /// Computes the authorization value a caller must present (also used
  /// by the emulator internally to check it).
  static Bytes compute_auth(BytesView secret, BytesView param_digest,
                            BytesView nonce_even, BytesView nonce_odd);

  /// Canonical parameter digests for the owner commands below.
  static Bytes owner_clear_params();
  static Bytes owner_nv_define_params(std::uint32_t index, std::size_t size);

  /// Owner-authorized: defines an NV area in the protected index range
  /// (>= 0x10000000). Rolls the session nonce on success AND on auth
  /// failure (as the real chip does).
  Status owner_nv_define(std::uint32_t session, std::uint32_t index,
                         std::size_t size, BytesView nonce_odd,
                         BytesView auth);

  /// Owner-authorized: clears ownership, counters, loaded keys and NV.
  /// Sealed blobs from before the clear become undecryptable (the SRK
  /// seed is regenerated), exactly like a real TPM_OwnerClear.
  Status owner_clear(std::uint32_t session, BytesView nonce_odd,
                     BytesView auth);

  // ---- monotonic counters ----------------------------------------------
  Result<std::uint64_t> counter_increment(std::uint32_t counter_id);
  Result<std::uint64_t> counter_read(std::uint32_t counter_id);

  // ---- NVRAM -----------------------------------------------------------
  Status nv_define(std::uint32_t index, std::size_t size);
  Status nv_write(std::uint32_t index, BytesView data);
  Result<Bytes> nv_read(std::uint32_t index);

  // ---- capability, self-test, ticks --------------------------------------

  /// TPM_GetCapability subset: static facts about the device.
  TpmCapabilities get_capability() const;

  /// TPM_ContinueSelfTest: runs the internal checks (hash + RNG sanity);
  /// on the emulator this validates the crypto substrate wiring.
  Status self_test();

  /// TPM_GetTicks: microseconds of (virtual) time since power-on.
  std::uint64_t read_tick();

  /// Number of commands executed (for the benchmark harness).
  std::uint64_t command_count() const { return command_count_; }

  /// Transient faults drawn so far (0 unless Options::faults enabled).
  std::uint64_t transient_faults() const { return transient_faults_; }
  /// Command re-issues those faults caused (each also re-charged the
  /// command's chip cost plus the retry backoff).
  std::uint64_t fault_retries() const { return fault_retries_; }
  /// Commands that kept faulting past the retry budget and failed with
  /// a typed kInternal error.
  std::uint64_t fault_exhaustions() const { return fault_exhaustions_; }

 private:
  struct LoadedKey {
    crypto::RsaPrivateKey key;
    PcrSelection policy_selection;
    Bytes policy_composite;
  };

  void charge(const char* label, SimDuration d);
  /// charge() plus the transient-fault model: re-issues the command
  /// (re-charging cost + backoff) while the fault stream says it
  /// faulted, and fails with kInternal once the retry budget is spent.
  Status charge_faulty(const char* label, SimDuration d);
  /// (Re)derives the sealed-storage protection contexts from the SRK
  /// seed; called at construction and after TPM_OwnerClear.
  void refresh_storage_keys();
  /// Integrity MAC over a sealed/wrapped blob body (cached key context).
  Bytes storage_mac(BytesView body);
  Status check_release_policy(Locality locality, std::uint8_t locality_mask,
                              const PcrSelection& selection,
                              BytesView composite) const;

  /// Checks an OIAP-authorized command and rolls the session nonce.
  Status check_owner_auth(std::uint32_t session, BytesView param_digest,
                          BytesView nonce_odd, BytesView auth);

  ChipProfile profile_;
  SimClock* clock_;
  Options options_;
  PcrBank pcrs_;
  std::unique_ptr<crypto::HmacDrbg> drbg_;
  Bytes srk_seed_;
  // Sealed-storage protection derived from the SRK seed: the AES key
  // schedule and HMAC key midstates are computed once per seed instead
  // of per command (optional only because they follow srk_seed_).
  std::optional<crypto::Aes> seal_enc_;
  std::optional<crypto::HmacSha256Ctx> seal_mac_;
  crypto::RsaPrivateKey aik_;
  crypto::RsaPublicKey aik_public_;
  std::map<std::uint32_t, LoadedKey> loaded_keys_;
  std::uint32_t next_handle_ = 1;
  std::map<std::uint32_t, std::uint64_t> counters_;
  std::map<std::uint32_t, Bytes> nvram_;
  std::optional<Bytes> owner_secret_;
  std::map<std::uint32_t, Bytes> oiap_sessions_;  // handle -> nonce_even
  std::uint32_t next_session_ = 0x100;
  std::uint64_t command_count_ = 0;
  SimRng fault_rng_;
  std::uint64_t transient_faults_ = 0;
  std::uint64_t fault_retries_ = 0;
  std::uint64_t fault_exhaustions_ = 0;
};

}  // namespace tp::tpm
