// Content hashing shared by the caching layers.
//
// The scheduler's session-adoption lookup (mc::EvalScheduler) and the
// serving daemon's deck-hash result cache both key on FNV-1a over raw
// bytes.  Collisions are tolerable everywhere the hash is used: every
// consumer validates what it finds under a key (exact design vector,
// option fingerprint) before trusting it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace moheco {

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Folds `text`'s bytes into a running FNV-1a state (pass the previous
/// return value to chain fields; start from kFnvOffsetBasis).
std::uint64_t fnv1a64(std::string_view text,
                      std::uint64_t state = kFnvOffsetBasis);

/// FNV-1a over the raw bytes of a double vector (bit-exact: -0.0 != 0.0).
std::uint64_t fnv1a64(std::span<const double> values,
                      std::uint64_t state = kFnvOffsetBasis);

/// Fixed-width lower-case hex of a 64-bit hash (16 characters).
std::string hex16(std::uint64_t value);

}  // namespace moheco
