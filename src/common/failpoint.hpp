// Deterministic fail-point framework.
//
// A fail point is a named site in risky code (LU pivoting, Newton loops,
// session open, socket IO, ...) that can be armed from the outside to fire
// on demand, so the failure-handling paths can be exercised continuously
// and reproducibly.  Sites are armed process-wide via a spec string
// (`--faults=` or the MOHECO_FAULTS environment variable):
//
//   spec     := entry (',' entry)*
//   entry    := 'seed=' UINT64
//             | SITE '=prob:' FLOAT      fire each hit with probability P,
//                                        decided by a seeded hash of the
//                                        per-site hit index (deterministic
//                                        for a given seed, independent of
//                                        thread interleaving per site order)
//             | SITE '=hit:' UINT64      fire exactly on the Nth hit
//                                        (1-based), once
//
// e.g.  MOHECO_FAULTS="seed=42,sparse_factor=prob:0.05,session_open=hit:3"
//
// When no site is armed the per-site check is one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace moheco::fail {

enum class Site : int {
  kSparseFactor = 0,  // sparse LU pivot breakdown
  kDenseFactor,       // dense LU breakdown on the sparse_to_dense rung
  kNewton,            // Newton non-convergence
  kTranStall,         // transient LTE stall (step-count exhaustion)
  kSessionOpen,       // evaluation session open() throw
  kSockWrite,         // serve-path socket write error
  kSockRead,          // serve-path socket read error
  kNumSites,
};

inline constexpr int kNumSites = static_cast<int>(Site::kNumSites);

/// Canonical spec name of a site ("sparse_factor", ...).
const char* site_name(Site site);

namespace detail {
extern std::atomic<bool> g_armed;
bool should_fail_slow(Site site);
}  // namespace detail

/// True when `site` fires this hit.  Every call counts as one hit of the
/// site while armed; disarmed sites cost one relaxed atomic load.
inline bool should_fail(Site site) {
  if (!detail::g_armed.load(std::memory_order_relaxed)) return false;
  return detail::should_fail_slow(site);
}

/// Arms the process-wide fail points from a spec string.  Replaces any
/// previous arming and resets hit/fire counters.  Throws InvalidArgument
/// on grammar errors or unknown site names.  An empty spec disarms.
void arm(const std::string& spec);

/// Arms from the MOHECO_FAULTS environment variable when it is set and
/// non-empty; returns true when arming happened.
bool arm_from_env();

/// Disarms every site and clears counters.
void disarm();

/// True when at least one site is armed.
bool armed();

/// Number of times `site` was evaluated while armed.
std::uint64_t hits(Site site);

/// Number of times `site` actually fired.
std::uint64_t fires(Site site);

/// Canonical round-trippable spec of the current arming ("" when
/// disarmed).  Stable ordering, usable as a cache-fingerprint component.
std::string spec_string();

}  // namespace moheco::fail
