// Bounded, deadline-aware table of protocol sessions.
//
// The seed kept half-open sessions (issued challenges awaiting their
// completion) in plain unordered_maps with no eviction: a flood of
// EnrollBegin/TxSubmit from millions of clients grew SP memory without
// bound -- the exact hole PR 2's bounded ReplayCache closed for
// signatures, still open for session state. SEDAT's scaling argument
// (cited in src/svc) assumes per-session verifier state is bounded; this
// table makes it so.
//
// Design mirrors ReplayCache: fixed capacity, open addressing with
// linear probing and backward-shift deletion, keys are truncated
// SHA-256 digests (16 bytes; collision probability ~2^-64 at any
// plausible fleet size), all storage allocated once up front. On top of
// that each slot carries fixed-size session payload (state, deadline,
// nonce, transaction digest, client tag) and sits on an intrusive LRU
// list:
//
//   - TTL: every (re)begin arms deadline = now + ttl on the virtual
//     clock (util/sim_clock.h). Expired sessions are collected lazily on
//     find/begin; because the TTL is constant and begins refresh it, LRU
//     order equals deadline order, so collection pops from the LRU front
//     only.
//   - Eviction: when the table is full, the least-recently-begun
//     half-open session is evicted. Eviction cannot break settled state
//     (settled sessions release their slot immediately); it only forces
//     the flooder's oldest unanswered challenge to be re-requested.
//   - Recycling: a begin for a key that already has a live session
//     reuses that slot (fresh nonce, fresh deadline). A client sending
//     EnrollBegin forever occupies exactly one slot.
//
// Memory is capacity-proportional and constant for the table's lifetime
// (memory_bytes() is the boundedness regression tests assert).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "proto/session_fsm.h"
#include "util/bytes.h"
#include "util/sim_clock.h"

namespace tp::proto {

struct SessionTableConfig {
  /// Maximum live sessions; 0 is clamped to 1. The probe table is sized
  /// to a power of two >= 2x capacity (load factor <= 1/2).
  std::size_t capacity = 4096;
  /// Lifetime of a half-open session from its last begin. <= 0 disables
  /// expiry (sessions then only leave by settling or eviction).
  SimDuration ttl = SimDuration::seconds(120);
};

class SessionTable {
 public:
  /// Key width (SHA-256 truncated), same rationale as ReplayCache.
  static constexpr std::size_t kKeyLen = 16;
  using Key = std::array<std::uint8_t, kKeyLen>;

  /// Largest nonce stored inline (ServiceProvider::kNonceLen fits it).
  static constexpr std::size_t kMaxNonceLen = 32;

  /// Session key for enrollment sessions (keyed by client identity, so
  /// repeat begins recycle one slot per client).
  static Key client_key(std::string_view client_id);
  /// Session key for confirmation sessions (keyed by tx id).
  static Key tx_key(std::uint64_t tx_id);
  /// Idempotency key: truncated digest of a raw message payload, used to
  /// tell a byte-identical retransmission from a different request.
  static Key payload_key(BytesView payload);

  /// Largest serialized response frame cached inline for idempotent
  /// replay (every SP response frame fits; see set_response).
  static constexpr std::size_t kMaxCachedResponseLen = 128;

  /// Fixed-size per-session payload. Strings never land here: client
  /// identity is stored as its truncated digest (client_key of the
  /// submitting client), which is exactly what the mismatch check needs.
  struct Session {
    SessionState state = SessionState::kIdle;
    SimTime deadline;                            // absolute, virtual time
    Key client{};                                // submitting client's tag
    std::uint8_t nonce_len = 0;
    std::array<std::uint8_t, kMaxNonceLen> nonce{};
    std::array<std::uint8_t, 32> tx_digest{};    // SHA-256, tx sessions

    // Idempotent-replay state: the digest of the request that last
    // advanced this session, and the serialized response it produced. A
    // byte-identical retransmission is answered from this cache; a
    // terminal session (kDone/kFailed) held in the table exists only to
    // serve such replays until its original deadline passes.
    Key request_digest{};
    std::uint16_t response_len = 0;
    std::array<std::uint8_t, kMaxCachedResponseLen> response{};

    BytesView nonce_view() const { return {nonce.data(), nonce_len}; }
    void set_nonce(BytesView n) {
      nonce_len = static_cast<std::uint8_t>(
          n.size() < kMaxNonceLen ? n.size() : kMaxNonceLen);
      for (std::size_t i = 0; i < nonce_len; ++i) nonce[i] = n[i];
    }

    bool terminal() const {
      return state == SessionState::kDone || state == SessionState::kFailed;
    }
    bool has_response() const { return response_len != 0; }
    BytesView response_view() const { return {response.data(), response_len}; }
    /// Caches the serialized response frame. Oversized frames are not
    /// cached (has_response() stays false; retransmits then reprocess),
    /// keeping the slot fixed-size.
    void set_response(BytesView frame) {
      if (frame.size() > kMaxCachedResponseLen) {
        response_len = 0;
        return;
      }
      response_len = static_cast<std::uint16_t>(frame.size());
      for (std::size_t i = 0; i < response_len; ++i) response[i] = frame[i];
    }
  };

  explicit SessionTable(SessionTableConfig config);

  /// The live session for `key`, or nullptr. A session whose deadline
  /// has passed is collected here (slot freed, expirations() bumped) and
  /// reported through `*expired` so the caller can answer with
  /// kSessionExpired rather than the generic no-session reject.
  Session* find(const Key& key, SimTime now, bool* expired = nullptr);

  /// Opens (or recycles) the session for `key`: collects expired
  /// sessions, evicts the least-recently-begun one if still full, arms
  /// deadline = now + ttl, resets the payload to a fresh
  /// kChallengeSent session and moves it to the back of the eviction
  /// order. Never fails.
  Session& begin(const Key& key, SimTime now);

  /// Releases the slot (session settled or abandoned). No-op if absent.
  void erase(const Key& key);

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }
  SimDuration ttl() const { return config_.ttl; }

  /// Sessions evicted to make room (capacity pressure).
  std::uint64_t evictions() const { return evictions_; }
  /// Half-open sessions collected because their deadline passed (a
  /// settled session whose replay-hold window closed is not counted).
  std::uint64_t expirations() const { return expirations_; }

  /// Heap bytes pinned by the table -- constant over its lifetime
  /// regardless of traffic (the boundedness the tests assert).
  std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// One live entry as exported by snapshot(). Plain value copies: the
  /// handoff path serializes shard state across table instances, so
  /// nothing here may point back into the source table.
  struct Entry {
    Key key{};
    Session session;
  };

  /// Every live session in LRU order (least recently begun first). With
  /// the constant-TTL invariant this is also ascending-deadline order,
  /// which is the order restore() wants entries replayed in.
  std::vector<Entry> snapshot() const;

  /// Re-inserts an exported session with its state, deadline and payload
  /// intact (unlike begin(), which resets to a fresh kChallengeSent).
  /// The slot lands at the back of the eviction order, so replaying a
  /// whole snapshot in ascending-deadline order preserves the
  /// LRU == deadline-order invariant; callers merging entries into a
  /// non-empty table (shard handoff) must merge-sort both sides by
  /// deadline first (ServiceProvider::import_state does). Inserting
  /// into a full table evicts the least-recently-begun session, like
  /// begin().
  void restore(const Key& key, const Session& session);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    Key key{};
    std::uint32_t prev = kNil;  // LRU links (kNil at the list ends)
    std::uint32_t next = kNil;
    std::uint8_t used = 0;
    Session session;
  };

  std::size_t ideal_slot(const Key& key) const;
  /// Index of key's slot, or the first empty slot of its probe chain.
  std::size_t probe(const Key& key) const;
  bool expiry_enabled() const { return config_.ttl.ns > 0; }

  void lru_detach(std::size_t i);
  void lru_push_back(std::size_t i);
  /// Frees slot `i` and backward-shifts its probe chain (fixing LRU
  /// links of every moved entry).
  void erase_slot(std::size_t i);
  /// Collects every expired session from the LRU front.
  void collect_expired(SimTime now);

  SessionTableConfig config_;
  std::size_t capacity_;
  std::size_t mask_;  // table size - 1 (power of two)
  std::size_t count_ = 0;
  std::uint32_t lru_head_ = kNil;  // least recently begun
  std::uint32_t lru_tail_ = kNil;  // most recently begun
  std::uint64_t evictions_ = 0;
  std::uint64_t expirations_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace tp::proto
