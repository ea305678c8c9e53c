// Challenge/response-pair database verification (the paper's first PUF
// verification option, Section 2).
//
// A trusted party records raw CRPs before deployment; later, a verifier
// authenticates the device by replaying stored challenges and comparing
// responses within a noise threshold.  Entries are single-use to prevent
// replay.  The paper notes the drawbacks this module makes concrete:
// storage grows linearly and the number of authentications is bounded —
// which is why PUFatt itself uses the emulation model H instead.
#pragma once

#include <cstdint>
#include <vector>

#include "alupuf/alu_puf.hpp"
#include "core/serialize.hpp"
#include "support/rng.hpp"

namespace pufatt::core {

class CrpDatabase {
 public:
  /// Records `count` database entries from the genuine device at
  /// enrollment time; each entry holds `challenges_per_entry` CRPs so one
  /// authentication decision aggregates enough response bits to separate
  /// the intra-chip noise (~11%) from the inter-chip distance (~36%)
  /// reliably.  The stored references are single measurements.
  static CrpDatabase collect(const alupuf::AluPuf& device, std::size_t count,
                             support::Xoshiro256pp& rng,
                             std::size_t challenges_per_entry = 8);

  struct AuthResult {
    bool accepted = false;
    bool exhausted = false;    ///< no unused entries left
    std::size_t distance = 0;  ///< summed HD over the entry's challenges
    std::size_t compared_bits = 0;

    /// An exhausted database yields no evidence about the device at all —
    /// tallies must treat it like a starved transport (PR 1's inconclusive
    /// != rejection rule), never as a rejection.  Callers branch on this,
    /// not on `!accepted`.
    bool conclusive() const { return !exhausted; }
  };

  /// Authenticates a device claiming to be the enrolled one: replays the
  /// next unused entry's challenges and accepts iff the summed HD stays
  /// under `threshold_fraction` of the compared bits (default 22%, between
  /// between the intra-chip ~11% and inter-chip ~36% rates).
  AuthResult authenticate(const alupuf::AluPuf& device,
                          support::Xoshiro256pp& rng,
                          double threshold_fraction = 0.22,
                          const variation::Environment& env =
                              variation::Environment::nominal());

  std::size_t size() const { return entries_.size(); }
  /// Unused entries left (O(1): entries are consumed strictly in order, so
  /// a cursor past the last consumed entry is the full accounting).
  std::size_t remaining() const { return entries_.size() - next_unused_; }
  /// Entries consumed so far; entry indices below this are spent.
  std::size_t consumed() const { return next_unused_; }
  /// Storage footprint in bytes (the scalability drawback, quantified).
  std::size_t storage_bytes() const;

  /// Marks every entry up to and including `index` as consumed — the
  /// durable store's WAL replay primitive.  Monotonic (the cursor only
  /// advances) and idempotent, so replaying the same consume marker twice,
  /// or on top of a snapshot that already folded it, is harmless.  Throws
  /// std::out_of_range when `index` is not a valid entry.
  void mark_consumed_through(std::size_t index);

  // --- persistence ----------------------------------------------------------
  // The consume cursor is part of the serialized state: a reloaded
  // database keeps refusing entries that were spent before the save, which
  // is the whole anti-replay point of a single-use database.

  /// Appends the full database (entries + consume cursor); byte-stable for
  /// a given state.
  void save(support::ByteWriter& out) const;

  /// Reads a database written by save() at the cursor; throws
  /// SerializationError (see core/serialize.hpp) on malformed input.
  static CrpDatabase load(support::ByteReader<SerializationError>& in);

 private:
  struct Entry {
    std::vector<alupuf::Challenge> challenges;
    std::vector<alupuf::RawResponse> references;
    bool used = false;
  };
  std::vector<Entry> entries_;
  /// Index of the next unused entry; everything below it is consumed.
  /// Replaces the O(n) scan each authenticate()/remaining() used to do.
  std::size_t next_unused_ = 0;
};

}  // namespace pufatt::core
