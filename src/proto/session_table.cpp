#include "proto/session_table.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "crypto/sha256.h"

namespace tp::proto {

namespace {

std::size_t table_size_for(std::size_t capacity) {
  // Power of two >= 2x capacity keeps the load factor <= 1/2, bounding
  // linear-probe chains to a handful of slots.
  std::size_t size = 8;
  while (size < capacity * 2) size <<= 1;
  return size;
}

SessionTable::Key truncate(const crypto::Sha256Digest& full) {
  SessionTable::Key key;
  std::memcpy(key.data(), full.data(), SessionTable::kKeyLen);
  return key;
}

}  // namespace

SessionTable::Key SessionTable::client_key(std::string_view client_id) {
  // Keyed hashing is unnecessary: a colliding client id would need a
  // 2^64 preimage-ish search on truncated SHA-256, and the worst a
  // collision yields is one shared session slot.
  return truncate(crypto::Sha256::digest(
      BytesView(reinterpret_cast<const std::uint8_t*>(client_id.data()),
                client_id.size())));
}

SessionTable::Key SessionTable::tx_key(std::uint64_t tx_id) {
  std::array<std::uint8_t, 8> le;
  for (std::size_t i = 0; i < 8; ++i) {
    le[i] = static_cast<std::uint8_t>(tx_id >> (8 * i));
  }
  return truncate(crypto::Sha256::digest(BytesView(le.data(), le.size())));
}

SessionTable::Key SessionTable::payload_key(BytesView payload) {
  return truncate(crypto::Sha256::digest(payload));
}

SessionTable::SessionTable(SessionTableConfig config)
    : config_(config),
      capacity_(std::max<std::size_t>(config.capacity, 1)),
      mask_(table_size_for(capacity_) - 1),
      slots_(mask_ + 1) {}

std::size_t SessionTable::ideal_slot(const Key& key) const {
  // Keys are truncated SHA-256, already uniform; the leading 8 bytes
  // are the hash.
  std::uint64_t h = 0;
  std::memcpy(&h, key.data(), sizeof(h));
  return static_cast<std::size_t>(h) & mask_;
}

std::size_t SessionTable::probe(const Key& key) const {
  std::size_t i = ideal_slot(key);
  while (slots_[i].used && slots_[i].key != key) i = (i + 1) & mask_;
  return i;
}

void SessionTable::lru_detach(std::size_t i) {
  Slot& s = slots_[i];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    lru_head_ = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    lru_tail_ = s.prev;
  }
  s.prev = s.next = kNil;
}

void SessionTable::lru_push_back(std::size_t i) {
  Slot& s = slots_[i];
  s.prev = lru_tail_;
  s.next = kNil;
  if (lru_tail_ != kNil) {
    slots_[lru_tail_].next = static_cast<std::uint32_t>(i);
  } else {
    lru_head_ = static_cast<std::uint32_t>(i);
  }
  lru_tail_ = static_cast<std::uint32_t>(i);
}

void SessionTable::erase_slot(std::size_t i) {
  lru_detach(i);
  slots_[i].used = 0;
  // Backward-shift deletion (no tombstones), as in ReplayCache -- but
  // moving an entry changes its index, so the LRU neighbours of every
  // moved entry are re-pointed at its new home.
  std::size_t j = i;
  for (;;) {
    j = (j + 1) & mask_;
    if (!slots_[j].used) break;
    const std::size_t k = ideal_slot(slots_[j].key);
    const bool reachable = (i < j) ? (k > i && k <= j) : (k > i || k <= j);
    if (!reachable) {
      slots_[i] = slots_[j];
      slots_[j].used = 0;
      Slot& moved = slots_[i];
      if (moved.prev != kNil) {
        slots_[moved.prev].next = static_cast<std::uint32_t>(i);
      } else {
        lru_head_ = static_cast<std::uint32_t>(i);
      }
      if (moved.next != kNil) {
        slots_[moved.next].prev = static_cast<std::uint32_t>(i);
      } else {
        lru_tail_ = static_cast<std::uint32_t>(i);
      }
      i = j;
    }
  }
  --count_;
}

void SessionTable::collect_expired(SimTime now) {
  if (!expiry_enabled()) return;
  // Constant TTL + begin-refresh makes LRU order == deadline order, so
  // every expired session sits at the front.
  while (lru_head_ != kNil &&
         slots_[lru_head_].session.deadline < now) {
    if (!slots_[lru_head_].session.terminal()) ++expirations_;
    erase_slot(lru_head_);
  }
}

SessionTable::Session* SessionTable::find(const Key& key, SimTime now,
                                          bool* expired) {
  if (expired != nullptr) *expired = false;
  const std::size_t i = probe(key);
  if (!slots_[i].used) return nullptr;
  if (expiry_enabled() && slots_[i].session.deadline < now) {
    if (!slots_[i].session.terminal()) ++expirations_;
    erase_slot(i);
    if (expired != nullptr) *expired = true;
    return nullptr;
  }
  return &slots_[i].session;
}

SessionTable::Session& SessionTable::begin(const Key& key, SimTime now) {
  collect_expired(now);
  const SimTime deadline =
      expiry_enabled()
          ? now + config_.ttl
          : SimTime{std::numeric_limits<std::int64_t>::max()};

  std::size_t i = probe(key);
  if (!slots_[i].used) {
    if (count_ == capacity_) {
      // Evict the least-recently-begun half-open session; the shift may
      // rearrange the probe chain, so re-probe for the insertion slot.
      erase_slot(lru_head_);
      ++evictions_;
      i = probe(key);
    }
    slots_[i].used = 1;
    slots_[i].key = key;
    slots_[i].prev = slots_[i].next = kNil;
    ++count_;
    lru_push_back(i);
  } else {
    // Recycle: same key, same slot, back of the eviction order.
    lru_detach(i);
    lru_push_back(i);
  }
  Session& session = slots_[i].session;
  session = Session{};
  session.state = SessionState::kChallengeSent;
  session.deadline = deadline;
  return session;
}

void SessionTable::erase(const Key& key) {
  const std::size_t i = probe(key);
  if (slots_[i].used) erase_slot(i);
}

std::vector<SessionTable::Entry> SessionTable::snapshot() const {
  std::vector<Entry> out;
  out.reserve(count_);
  for (std::uint32_t i = lru_head_; i != kNil; i = slots_[i].next) {
    out.push_back(Entry{slots_[i].key, slots_[i].session});
  }
  return out;
}

void SessionTable::restore(const Key& key, const Session& session) {
  std::size_t i = probe(key);
  if (!slots_[i].used) {
    if (count_ == capacity_) {
      erase_slot(lru_head_);
      ++evictions_;
      i = probe(key);
    }
    slots_[i].used = 1;
    slots_[i].key = key;
    slots_[i].prev = slots_[i].next = kNil;
    ++count_;
    lru_push_back(i);
  } else {
    lru_detach(i);
    lru_push_back(i);
  }
  slots_[i].session = session;
}

}  // namespace tp::proto
