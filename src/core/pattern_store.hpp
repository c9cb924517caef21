// PatternStore — the process-wide, sharded pattern-solve cache.
//
// An AnalysisContext's pattern cache is private and single-threaded
// (docs/ARCHITECTURE.md rule 2), so parallel workers re-solve identical
// PatternSignatures and every CLI invocation starts cold. The PatternStore
// is the shared tier behind those private caches: a striped-lock map from
// PatternSignature to the pattern's saturated rate, consulted by a context
// on a local miss and published into after a local solve.
//
// Sharing never changes results. A pattern's saturated rate is a
// deterministic function of its signature alone (the signature pins u, v,
// and the exact IEEE-754 duration bits; the Young-diagram CTMC solve is
// pure), so a store hit returns the same bits a local solve would have
// produced — the house bit-identity invariant survives arbitrary
// interleavings of readers and writers. publish() asserts exactly that on
// every duplicate publication, and Debug builds additionally re-solve a
// deterministic sample of store hits inside AnalysisContext
// (debug-check-store-hit, the cross-context agreement probe).
//
// Concurrency: entries are immutable once published (first writer wins),
// shard = hash(signature) mod shard_count, each shard owns a
// streamflow::Mutex guarding its map and its exact hit/miss/publish
// counters. Lock hold times are one hash-map operation; there is no global
// lock and no cross-shard ordering, so the store never deadlocks and scales
// with the shard count.
//
// Persistence: save()/load() serialize the entries as a versioned
// line-oriented text snapshot ("streamflow-pattern-store v2") with every
// double spelled as its 16-digit hex bit pattern (bit-exact round-trips, no
// decimal parsing) and a trailing FNV-1a digest over the sorted entries.
// Snapshots are sorted by (u, v, duration bits), so a store's snapshot is
// byte-stable regardless of shard count, hash seeding, or insertion order,
// and digest() of a live store equals the digest its snapshot carries.
// load_file() of a nonexistent path is a cold start (returns 0); a
// corrupted, truncated, or version-skewed snapshot throws InvalidArgument
// with a line diagnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "tpn/columns.hpp"

namespace streamflow {

/// Aggregated exact counters of a PatternStore (sums of the per-shard
/// counters, each maintained under its shard lock — no sampling, no races:
/// hits + misses == lookup calls and publishes + duplicates == publish
/// calls, exactly, under any interleaving).
struct PatternStoreStats {
  std::size_t hits = 0;        ///< lookups answered from a shard map
  std::size_t misses = 0;      ///< lookups that found no entry
  std::size_t publishes = 0;   ///< first publications (entries inserted)
  std::size_t duplicates = 0;  ///< re-publications of an existing signature
  std::size_t entries = 0;     ///< current entry count across all shards
};

class PatternStore {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  explicit PatternStore(std::size_t shards = kDefaultShards);
  ~PatternStore();

  PatternStore(const PatternStore&) = delete;
  PatternStore& operator=(const PatternStore&) = delete;

  /// The saturated rate published for `signature`, or nullopt. Counts
  /// exactly one shard hit or miss.
  std::optional<double> lookup(const PatternSignature& signature);

  /// Publishes a solve. First writer wins; a duplicate publication asserts
  /// bit-equality with the stored rate (solves are deterministic functions
  /// of the signature, so concurrent publishers must agree) and leaves the
  /// entry untouched.
  void publish(const PatternSignature& signature, double rate);

  std::size_t shard_count() const { return shards_.size(); }
  /// The shard `signature` maps to: hash(signature) mod shard_count.
  std::size_t shard_of(const PatternSignature& signature) const;
  /// Entry count of one shard (for distribution diagnostics and tests).
  std::size_t shard_size(std::size_t shard) const;
  /// Total entry count across shards.
  std::size_t size() const;

  PatternStoreStats stats() const;

  /// Drops every entry and every counter.
  void clear();

  // ---- Snapshots ----------------------------------------------------------

  /// Writes the versioned snapshot: entries sorted by (u, v, duration
  /// bits), doubles as hex bit patterns, trailing digest line. Byte-stable
  /// for a given entry set (shard count and insertion order are invisible).
  void save(std::ostream& os) const;

  /// Merges a snapshot into the store and returns the number of entries it
  /// carried. Throws InvalidArgument (with a line diagnostic) on a missing
  /// or skewed version header, a malformed entry, a truncated file, or a
  /// digest mismatch. An entry that collides with a live one must be
  /// bit-equal (same determinism argument as publish()).
  std::size_t load(std::istream& is);

  /// save() to `path`; throws InvalidArgument when the file cannot be
  /// written.
  void save_file(const std::string& path) const;

  /// load() from `path`. A nonexistent path is a cold start: returns 0 and
  /// changes nothing. An existing-but-invalid file throws.
  std::size_t load_file(const std::string& path);

  /// FNV-1a over the sorted entries — the value save() writes in its
  /// trailing digest line. Equal digests mean bit-identical entry sets.
  std::uint64_t digest() const;

  // ---- Test support -------------------------------------------------------

  /// Applies `fn` to every stored rate in place and returns the entry
  /// count. Fault injection for tests ONLY (the stale-entry shim of the
  /// shared-store fuzz check and the Debug re-solve assertion test): a
  /// transformed entry deliberately violates the solve-determinism
  /// contract that lookup hits rely on.
  std::size_t transform_rates(const std::function<double(double)>& fn);

  /// The process-wide instance long-running callers (the CLI serve mode)
  /// share by default. Constructed with kDefaultShards on first use.
  static PatternStore& process_wide();

  /// Opaque shard (defined in the .cpp): an annotated Mutex striping one
  /// hash-map slice plus its exact counters. Public only so implementation
  /// helpers can name the type; the layout never leaves pattern_store.cpp.
  struct Shard;

 private:
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace streamflow
