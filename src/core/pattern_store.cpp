#include "core/pattern_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace streamflow {

namespace {

/// v2: pattern rates above the dense threshold come from the Gauss–Seidel
/// solve, so v1 rates would no longer match a cold solve bit for bit.
constexpr std::string_view kSnapshotHeader = "streamflow-pattern-store v2";

/// One snapshot row (and the unit the digest is computed over).
struct StoredEntry {
  PatternSignature signature;
  double rate = 0.0;
};

/// The canonical snapshot order: (u, v, duration bits) lexicographically.
/// Total over distinct signatures, so sorting makes snapshots byte-stable
/// regardless of shard count, hash seeding, or insertion history.
bool entry_less(const StoredEntry& a, const StoredEntry& b) {
  if (a.signature.u != b.signature.u) return a.signature.u < b.signature.u;
  if (a.signature.v != b.signature.v) return a.signature.v < b.signature.v;
  return a.signature.duration_bits < b.signature.duration_bits;
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFFull;
    hash *= kFnvPrime;
  }
}

/// FNV-1a over the entries in canonical order — the snapshot digest.
std::uint64_t entries_digest(const std::vector<StoredEntry>& entries) {
  std::uint64_t hash = kFnvOffset;
  for (const StoredEntry& entry : entries) {
    fnv_mix(hash, entry.signature.u);
    fnv_mix(hash, entry.signature.v);
    fnv_mix(hash, entry.signature.duration_bits.size());
    for (const std::uint64_t bits : entry.signature.duration_bits) {
      fnv_mix(hash, bits);
    }
    fnv_mix(hash, std::bit_cast<std::uint64_t>(entry.rate));
  }
  return hash;
}

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool parse_hex64(const std::string& token, std::uint64_t& out) {
  if (token.empty() || token.size() > 16) return false;
  try {
    std::size_t pos = 0;
    out = std::stoull(token, &pos, 16);
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_size(const std::string& token, std::size_t& out) {
  if (token.empty() || token[0] == '-') return false;
  try {
    std::size_t pos = 0;
    const unsigned long long value = std::stoull(token, &pos);
    out = static_cast<std::size_t>(value);
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

struct PatternStore::Shard {
  struct Hash {
    std::size_t operator()(const PatternSignature& signature) const {
      return static_cast<std::size_t>(signature.hash());
    }
  };

  mutable Mutex mutex;
  // Point-queried by lookup()/publish(); iterated ONLY by the snapshot and
  // fault-injection paths below, which sort (or treat order-independently)
  // before anything escapes.
  std::unordered_map<PatternSignature, double, Hash> map SF_GUARDED_BY(mutex);
  std::size_t hits SF_GUARDED_BY(mutex) = 0;
  std::size_t misses SF_GUARDED_BY(mutex) = 0;
  std::size_t publishes SF_GUARDED_BY(mutex) = 0;
  std::size_t duplicates SF_GUARDED_BY(mutex) = 0;
};

PatternStore::PatternStore(std::size_t shards) {
  SF_REQUIRE(shards >= 1, "pattern store requires at least one shard");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

PatternStore::~PatternStore() = default;

std::size_t PatternStore::shard_of(const PatternSignature& signature) const {
  return static_cast<std::size_t>(signature.hash() % shards_.size());
}

std::optional<double> PatternStore::lookup(const PatternSignature& signature) {
  Shard& shard = *shards_[shard_of(signature)];
  MutexLock lock(shard.mutex);
  const auto it = shard.map.find(signature);
  if (it == shard.map.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  return it->second;
}

void PatternStore::publish(const PatternSignature& signature, double rate) {
  Shard& shard = *shards_[shard_of(signature)];
  MutexLock lock(shard.mutex);
  const auto [it, inserted] = shard.map.emplace(signature, rate);
  if (inserted) {
    ++shard.publishes;
    return;
  }
  ++shard.duplicates;
  // Solves are deterministic functions of the signature, so every publisher
  // of the same signature must produce the same bits — the invariant that
  // makes first-writer-wins indistinguishable from any other tie-break.
  SF_ASSERT(std::bit_cast<std::uint64_t>(it->second) ==
                std::bit_cast<std::uint64_t>(rate),
            "pattern store publish disagreement: two solves of one signature "
            "produced different bits");
}

std::size_t PatternStore::shard_size(std::size_t shard) const {
  SF_REQUIRE(shard < shards_.size(), "shard index out of range");
  MutexLock lock(shards_[shard]->mutex);
  return shards_[shard]->map.size();
}

std::size_t PatternStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

PatternStoreStats PatternStore::stats() const {
  PatternStoreStats stats;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.publishes += shard->publishes;
    stats.duplicates += shard->duplicates;
    stats.entries += shard->map.size();
  }
  return stats;
}

void PatternStore::clear() {
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    shard->map.clear();
    shard->hits = 0;
    shard->misses = 0;
    shard->publishes = 0;
    shard->duplicates = 0;
  }
}

namespace {

/// Collects every entry of `shards` into canonical order (the only way
/// entries ever leave the store wholesale, so iteration order can never
/// reach a result or a byte of output).
std::vector<StoredEntry> collect_sorted(
    const std::vector<std::unique_ptr<PatternStore::Shard>>& shards) {
  std::vector<StoredEntry> entries;
  for (const auto& shard : shards) {
    MutexLock lock(shard->mutex);
    entries.reserve(entries.size() + shard->map.size());
    // lint:allow(unordered-iter): entries are sorted into canonical (u, v,
    // bits) order below before any byte is emitted or hashed
    for (const auto& [signature, rate] : shard->map) {
      entries.push_back(StoredEntry{signature, rate});
    }
  }
  std::sort(entries.begin(), entries.end(), entry_less);
  return entries;
}

}  // namespace

void PatternStore::save(std::ostream& os) const {
  const std::vector<StoredEntry> entries = collect_sorted(shards_);
  os << kSnapshotHeader << "\n";
  os << "entries " << entries.size() << "\n";
  for (const StoredEntry& entry : entries) {
    os << "entry " << entry.signature.u << " " << entry.signature.v << " "
       << entry.signature.duration_bits.size();
    for (const std::uint64_t bits : entry.signature.duration_bits) {
      os << " " << hex16(bits);
    }
    os << " rate " << hex16(std::bit_cast<std::uint64_t>(entry.rate)) << "\n";
  }
  os << "digest " << hex16(entries_digest(entries)) << "\n";
}

std::size_t PatternStore::load(std::istream& is) {
  std::size_t line_number = 0;
  const auto fail = [&](const std::string& message) {
    throw InvalidArgument("pattern-store snapshot line " +
                          std::to_string(line_number) + ": " + message);
  };
  // Reads the next content line ('#' comments and blank lines skipped).
  const auto next_line = [&](std::string& out) {
    std::string raw;
    while (std::getline(is, raw)) {
      ++line_number;
      const std::size_t begin = raw.find_first_not_of(" \t\r");
      if (begin == std::string::npos || raw[begin] == '#') continue;
      const std::size_t end = raw.find_last_not_of(" \t\r");
      out = raw.substr(begin, end - begin + 1);
      return true;
    }
    return false;
  };

  std::string text;
  if (!next_line(text)) {
    fail("missing header (expected '" + std::string(kSnapshotHeader) + "')");
  }
  if (text != kSnapshotHeader) {
    constexpr std::size_t kVersionAt = kSnapshotHeader.rfind(' ') + 1;
    if (text.rfind(kSnapshotHeader.substr(0, kVersionAt), 0) == 0) {
      fail("unsupported snapshot version '" + text.substr(kVersionAt) +
           "' (this build reads " +
           std::string(kSnapshotHeader.substr(kVersionAt)) + ")");
    }
    fail("not a pattern-store snapshot (got '" + text + "')");
  }

  if (!next_line(text)) fail("truncated: missing 'entries <count>' line");
  std::istringstream header(text);
  std::string keyword, token;
  std::size_t count = 0;
  header >> keyword >> token;
  if (keyword != "entries" || !parse_size(token, count) ||
      (header >> keyword)) {
    fail("expected 'entries <count>', got '" + text + "'");
  }

  std::vector<StoredEntry> entries;
  entries.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    if (!next_line(text)) {
      fail("truncated: expected " + std::to_string(count) +
           " entries, found " + std::to_string(k));
    }
    std::istringstream row(text);
    StoredEntry entry;
    std::size_t bits_count = 0;
    row >> keyword;
    std::string u_token, v_token, k_token;
    row >> u_token >> v_token >> k_token;
    if (keyword != "entry" || !parse_size(u_token, entry.signature.u) ||
        !parse_size(v_token, entry.signature.v) ||
        !parse_size(k_token, bits_count) || entry.signature.u == 0 ||
        entry.signature.v == 0 || bits_count == 0) {
      fail("malformed entry '" + text + "'");
    }
    entry.signature.duration_bits.reserve(bits_count);
    for (std::size_t b = 0; b < bits_count; ++b) {
      std::uint64_t bits = 0;
      if (!(row >> token) || !parse_hex64(token, bits)) {
        fail("malformed duration bits in entry '" + text + "'");
      }
      entry.signature.duration_bits.push_back(bits);
    }
    std::uint64_t rate_bits = 0;
    if (!(row >> keyword >> token) || keyword != "rate" ||
        !parse_hex64(token, rate_bits) || (row >> keyword)) {
      fail("malformed rate in entry '" + text + "'");
    }
    entry.rate = std::bit_cast<double>(rate_bits);
    entries.push_back(std::move(entry));
  }

  if (!next_line(text)) fail("truncated: missing 'digest <hex>' trailer");
  std::istringstream trailer(text);
  std::uint64_t claimed = 0;
  trailer >> keyword >> token;
  if (keyword != "digest" || !parse_hex64(token, claimed) ||
      (trailer >> keyword)) {
    fail("expected 'digest <hex>', got '" + text + "'");
  }
  std::vector<StoredEntry> sorted = entries;
  std::sort(sorted.begin(), sorted.end(), entry_less);
  const std::uint64_t computed = entries_digest(sorted);
  if (computed != claimed) {
    fail("digest mismatch: snapshot claims " + hex16(claimed) +
         ", entries hash to " + hex16(computed) + " (corrupted snapshot)");
  }
  if (next_line(text)) fail("trailing content after digest: '" + text + "'");

  for (const StoredEntry& entry : entries) {
    Shard& shard = *shards_[shard_of(entry.signature)];
    MutexLock lock(shard.mutex);
    const auto [it, inserted] = shard.map.emplace(entry.signature, entry.rate);
    if (inserted) {
      ++shard.publishes;
    } else {
      ++shard.duplicates;
      if (std::bit_cast<std::uint64_t>(it->second) !=
          std::bit_cast<std::uint64_t>(entry.rate)) {
        throw InvalidArgument(
            "pattern-store snapshot disagrees with a live entry for pattern "
            "u=" +
            std::to_string(entry.signature.u) +
            " v=" + std::to_string(entry.signature.v) +
            " (stale snapshot or corrupted data)");
      }
    }
  }
  return entries.size();
}

void PatternStore::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw InvalidArgument("cannot write pattern-store snapshot '" + path +
                          "'");
  }
  save(out);
  out.flush();
  if (!out) {
    throw InvalidArgument("failed writing pattern-store snapshot '" + path +
                          "'");
  }
}

std::size_t PatternStore::load_file(const std::string& path) {
  if (!std::filesystem::exists(path)) return 0;  // cold start
  std::ifstream in(path);
  if (!in) {
    throw InvalidArgument("cannot read pattern-store snapshot '" + path +
                          "'");
  }
  return load(in);
}

std::uint64_t PatternStore::digest() const {
  return entries_digest(collect_sorted(shards_));
}

std::size_t PatternStore::transform_rates(
    const std::function<double(double)>& fn) {
  std::size_t transformed = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    // lint:allow(unordered-iter): test-only fault injection; the transform
    // is applied to every entry, so visitation order is immaterial
    for (auto& [signature, rate] : shard->map) {
      rate = fn(rate);
      ++transformed;
    }
  }
  return transformed;
}

PatternStore& PatternStore::process_wide() {
  static PatternStore store;
  return store;
}

}  // namespace streamflow
