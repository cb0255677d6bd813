#ifndef HDB_EXEC_HASH_TABLE_H_
#define HDB_EXEC_HASH_TABLE_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>
#include <vector>

#include "common/value.h"

namespace hdb::exec {

/// The executor's one hash table (DESIGN.md §9): open addressing with
/// linear probing, mapping a 64-bit hash to a dense entry number. Each
/// slot holds the full hash and the entry number; the entries themselves
/// live in the caller's vectors, indexed by that number, so a table never
/// allocates per key. Entry numbers are handed out in insertion order
/// (0, 1, 2, ...), and nothing is ever erased: Clear() drops everything.
///
/// Key equality is the caller's: Find() takes a predicate over entry
/// numbers and only calls it for slots whose stored hash matches.
class FlatHashTable {
 public:
  static constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();

  size_t size() const { return size_; }

  /// The entry stored under hash `h` for which `eq(entry)` holds, or
  /// kAbsent.
  template <typename Eq>
  uint32_t Find(uint64_t h, const Eq& eq) const {
    if (size_ == 0) return kAbsent;
    for (size_t i = Home(h);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.entry == kAbsent) return kAbsent;
      if (s.hash == h && eq(s.entry)) return s.entry;
    }
  }

  /// Adds entry number size() under hash `h` and returns it. The caller
  /// has already established (with Find) that no equal entry exists.
  uint32_t Insert(uint64_t h) {
    if ((size_ + 1) * 4 > slots_.size() * 3) Grow();
    const auto entry = static_cast<uint32_t>(size_++);
    Place(h, entry);
    return entry;
  }

  /// Drops every entry; keeps the slot array for reuse.
  void Clear() {
    if (size_ == 0) return;
    for (Slot& s : slots_) s.entry = kAbsent;
    size_ = 0;
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint32_t entry = kAbsent;
  };

  /// Fibonacci hashing: the top bits of h * 2^64/phi, so hashes whose low
  /// bits barely vary (FNV over small integers) still spread.
  size_t Home(uint64_t h) const {
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void Place(uint64_t h, uint32_t entry) {
    size_t i = Home(h);
    while (slots_[i].entry != kAbsent) i = (i + 1) & mask_;
    slots_[i] = Slot{h, entry};
  }

  /// Doubles the slot array (16 slots at first) and re-homes every slot
  /// from its stored hash; entry numbers do not change.
  void Grow() {
    const size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    shift_ = 64 - std::countr_zero(cap);
    for (const Slot& s : old) {
      if (s.entry != kAbsent) Place(s.hash, s.entry);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 64;
};

// ---------------------------------------------------------------------------
// Group and DISTINCT key identity: two key tuples are the same key exactly
// when EncodeValues (exec/spill.h) would encode them to the same bytes —
// per slot the type tag plus its payload, every NULL alike whatever its
// type. INT 1 and BIGINT 1 are therefore two groups, and a DOUBLE compares
// by its bits. (Join keys match by Value::Hash plus Compare instead.)
// ---------------------------------------------------------------------------

/// Hash of one key slot, consistent with SameKeyValue: the type tag in
/// the top byte, XORed with the payload bits. KeyHash mixes it.
inline uint64_t KeyValueHash(const Value& v) {
  if (v.is_null()) return 0x6a09e667f3bcc909ull;
  const auto tag = static_cast<uint64_t>(v.type()) << 56;
  switch (v.type()) {
    case TypeId::kBoolean:
      return tag | (v.AsBool() ? 1 : 0);
    case TypeId::kDouble: {
      const double d = v.AsDouble();
      uint64_t bits = 0;
      std::memcpy(&bits, &d, sizeof(bits));
      return tag ^ bits;
    }
    case TypeId::kVarchar:
      return tag ^ std::hash<std::string_view>{}(v.AsString());
    case TypeId::kInt:
    case TypeId::kBigint:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      break;
  }
  return tag ^ static_cast<uint64_t>(v.AsInt());
}

inline bool SameKeyValue(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case TypeId::kBoolean:
      return a.AsBool() == b.AsBool();
    case TypeId::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case TypeId::kVarchar:
      return a.AsString() == b.AsString();
    case TypeId::kInt:
    case TypeId::kBigint:
    case TypeId::kDate:
    case TypeId::kTimestamp:
      break;
  }
  return a.AsInt() == b.AsInt();
}

/// Hash of a key tuple whose slot i is `get(i)`, i < n.
template <typename Get>
uint64_t KeyHash(size_t n, const Get& get) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ KeyValueHash(get(i))) * 0x9e3779b97f4a7c15ull;
  }
  return h ^ (h >> 32);
}

/// Distinct key tuples of one arity, numbered in insertion order and
/// indexed by a FlatHashTable: the group table of hash group by (whose
/// per-group aggregate states the caller keeps beside it, by number) and
/// the seen-set of hash DISTINCT. Keys are stored flat, `arity` Values per
/// entry, so a new key costs no allocation of its own.
class KeyTable {
 public:
  explicit KeyTable(size_t arity = 0) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t size() const { return index_.size(); }

  /// Empties the table and sets the arity of the keys it will hold.
  void Reset(size_t arity) {
    Clear();
    arity_ = arity;
  }
  void Clear() {
    index_.Clear();
    keys_.clear();
  }

  /// The entry whose key equals `get(0..arity)` (hash `h` = KeyHash of
  /// it), or FlatHashTable::kAbsent.
  template <typename Get>
  uint32_t Find(uint64_t h, const Get& get) const {
    return index_.Find(h, [&](uint32_t e) {
      const Value* k = key(e);
      for (size_t i = 0; i < arity_; ++i) {
        if (!SameKeyValue(k[i], get(i))) return false;
      }
      return true;
    });
  }

  /// Copies the key `get(0..arity)` in as entry size(); the caller found
  /// it absent first.
  template <typename Get>
  uint32_t Insert(uint64_t h, const Get& get) {
    for (size_t i = 0; i < arity_; ++i) keys_.push_back(get(i));
    return index_.Insert(h);
  }

  const Value* key(uint32_t e) const { return keys_.data() + e * arity_; }
  Value* mutable_key(uint32_t e) { return keys_.data() + e * arity_; }

  /// Entry numbers in ascending order of their keys' EncodeValues bytes —
  /// the emission order of GROUP BY and of parallel DISTINCT. Encodes each
  /// key once, into one buffer.
  std::vector<uint32_t> EncodedOrder() const;

 private:
  size_t arity_;
  FlatHashTable index_;
  std::vector<Value> keys_;  // [entry * arity + slot]
};

/// Build side of a hash join: a FlatHashTable from each distinct key hash
/// to the chain of build rows carrying it, in insertion order. Rows are
/// numbered densely by the caller (row r is the r-th Add); the chain links
/// are one uint32 per row, so the table holds no per-key vectors.
class JoinIndex {
 public:
  static constexpr uint32_t kEnd = FlatHashTable::kAbsent;

  /// Appends row number rows() under hash `h`.
  void Add(uint64_t h) {
    const auto row = static_cast<uint32_t>(next_.size());
    next_.push_back(kEnd);
    const uint32_t chain = index_.Find(h, [](uint32_t) { return true; });
    if (chain == FlatHashTable::kAbsent) {
      index_.Insert(h);
      head_.push_back(row);
      tail_.push_back(row);
      return;
    }
    next_[tail_[chain]] = row;
    tail_[chain] = row;
  }

  /// First row stored under hash `h`, or kEnd; Next() walks the rest.
  uint32_t First(uint64_t h) const {
    const uint32_t chain = index_.Find(h, [](uint32_t) { return true; });
    return chain == FlatHashTable::kAbsent ? kEnd : head_[chain];
  }
  uint32_t Next(uint32_t row) const { return next_[row]; }

  void Clear() {
    index_.Clear();
    head_.clear();
    tail_.clear();
    next_.clear();
  }

 private:
  FlatHashTable index_;         // key hash -> chain number
  std::vector<uint32_t> head_;  // [chain] first row
  std::vector<uint32_t> tail_;  // [chain] last row
  std::vector<uint32_t> next_;  // [row] next row of its chain, or kEnd
};

/// A hash join's build-side key filter (DESIGN.md §9): a blocked Bloom
/// filter over the build keys' Value::Hash, one 64-bit word per key and
/// two bits set in it. MayContain is never false for a hash that was
/// added, so a probe row it rejects cannot join; a saturated or
/// undersized filter only lets more rows through.
class KeyFilter {
 public:
  /// Sizes the filter for `keys` keys at 8-16 bits each (a power-of-two
  /// word count), at most `max_bytes` and at least one word, and clears
  /// it.
  void Reset(double keys, uint64_t max_bytes) {
    uint64_t words = 1;
    while (words * 2 * 64 <= keys * 16 && words * 2 * 8 <= max_bytes) {
      words *= 2;
    }
    words_.assign(words, 0);
    shift_ = 64 - std::countr_zero(words);
  }

  void Add(uint64_t h) {
    const uint64_t m = Mix(h);
    words_[Word(m)] |= Bits(m);
  }

  bool MayContain(uint64_t h) const {
    const uint64_t m = Mix(h);
    const uint64_t bits = Bits(m);
    return (words_[Word(m)] & bits) == bits;
  }

  uint64_t bytes() const { return words_.size() * sizeof(uint64_t); }

 private:
  // Value::Hash is FNV-1a, whose low output bits see only the low bits of
  // each input byte: one Fibonacci multiply spreads them upward, then the
  // word comes from the top bits and the two bit positions from bits
  // 20-31 (a filter never has 2^32 words).
  static uint64_t Mix(uint64_t h) { return h * 0x9e3779b97f4a7c15ull; }
  size_t Word(uint64_t m) const {
    return shift_ == 64 ? 0 : static_cast<size_t>(m >> shift_);
  }
  static uint64_t Bits(uint64_t m) {
    return (uint64_t{1} << ((m >> 20) & 63)) |
           (uint64_t{1} << ((m >> 26) & 63));
  }

  std::vector<uint64_t> words_;
  int shift_ = 64;
};

}  // namespace hdb::exec

#endif  // HDB_EXEC_HASH_TABLE_H_
