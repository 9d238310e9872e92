#include "src/common/failpoint.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "src/common/error.hpp"

namespace moheco::fail {
namespace {

enum class Mode : int { kOff = 0, kProb, kHit };

struct SiteConfig {
  Mode mode = Mode::kOff;
  double prob = 0.0;          // kProb: fire probability per hit
  std::uint64_t nth = 0;      // kHit: 1-based hit index that fires
};

struct State {
  std::mutex mutex;  // guards arming only; the hot path reads atomics
  std::uint64_t seed = 1;
  std::array<SiteConfig, kNumSites> config{};
  std::array<std::atomic<std::uint64_t>, kNumSites> hit_count{};
  std::array<std::atomic<std::uint64_t>, kNumSites> fire_count{};
};

State& state() {
  static State s;
  return s;
}

constexpr const char* kSiteNames[kNumSites] = {
    "sparse_factor", "dense_factor", "newton",    "tran_stall",
    "session_open",  "sock_write",   "sock_read",
};

int site_from_name(const std::string& name) {
  for (int i = 0; i < kNumSites; ++i) {
    if (name == kSiteNames[i]) return i;
  }
  return -1;
}

// SplitMix64-style mix: maps (seed, site, hit index) to a uniform 64-bit
// value, so prob triggers are a deterministic function of the per-site hit
// ordinal rather than global call interleaving.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  if (text.empty() || text[0] == '-') {
    throw InvalidArgument("faults: bad " + what + " '" + text + "'");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    throw InvalidArgument("faults: bad " + what + " '" + text + "'");
  }
  return static_cast<std::uint64_t>(v);
}

double parse_prob(const std::string& text) {
  if (text.empty()) throw InvalidArgument("faults: empty probability");
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE || !(v >= 0.0) ||
      !(v <= 1.0)) {
    throw InvalidArgument("faults: probability '" + text +
                          "' must be in [0, 1]");
  }
  return v;
}

std::string format_prob(double p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", p);
  return buf;
}

}  // namespace

const char* site_name(Site site) {
  return kSiteNames[static_cast<int>(site)];
}

namespace detail {

std::atomic<bool> g_armed{false};

bool should_fail_slow(Site site) {
  State& s = state();
  const int i = static_cast<int>(site);
  const SiteConfig cfg = s.config[i];  // stable while armed
  if (cfg.mode == Mode::kOff) return false;
  const std::uint64_t hit =
      s.hit_count[i].fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  if (cfg.mode == Mode::kHit) {
    fire = hit == cfg.nth;
  } else {
    const std::uint64_t r =
        mix64(s.seed ^ mix64(static_cast<std::uint64_t>(i) + 1) ^
              mix64(hit + 0xFA17ULL));
    // r / 2^64 < prob, without losing precision for prob == 1.
    fire = cfg.prob >= 1.0 ||
           static_cast<double>(r) <
               cfg.prob * 18446744073709551616.0 /* 2^64 */;
  }
  if (fire) s.fire_count[i].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

}  // namespace detail

void arm(const std::string& spec) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  detail::g_armed.store(false, std::memory_order_relaxed);
  s.seed = 1;
  for (int i = 0; i < kNumSites; ++i) {
    s.config[i] = SiteConfig{};
    s.hit_count[i].store(0, std::memory_order_relaxed);
    s.fire_count[i].store(0, std::memory_order_relaxed);
  }
  bool any = false;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      throw InvalidArgument("faults: entry '" + entry + "' missing '='");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "seed") {
      s.seed = parse_u64(value, "seed");
      continue;
    }
    const int site = site_from_name(key);
    if (site < 0) {
      throw InvalidArgument("faults: unknown site '" + key + "'");
    }
    SiteConfig cfg;
    if (value.rfind("prob:", 0) == 0) {
      cfg.mode = Mode::kProb;
      cfg.prob = parse_prob(value.substr(5));
    } else if (value.rfind("hit:", 0) == 0) {
      cfg.mode = Mode::kHit;
      cfg.nth = parse_u64(value.substr(4), "hit count");
      if (cfg.nth == 0) {
        throw InvalidArgument("faults: hit count must be >= 1 in '" + entry +
                              "'");
      }
    } else {
      throw InvalidArgument("faults: trigger '" + value +
                            "' must be prob:P or hit:N");
    }
    s.config[site] = cfg;
    any = true;
  }
  if (any) detail::g_armed.store(true, std::memory_order_relaxed);
}

bool arm_from_env() {
  const char* env = std::getenv("MOHECO_FAULTS");
  if (env == nullptr || *env == '\0') return false;
  arm(env);
  return armed();
}

void disarm() { arm(""); }

bool armed() { return detail::g_armed.load(std::memory_order_relaxed); }

std::uint64_t hits(Site site) {
  return state().hit_count[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

std::uint64_t fires(Site site) {
  return state().fire_count[static_cast<int>(site)].load(
      std::memory_order_relaxed);
}

std::string spec_string() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (!detail::g_armed.load(std::memory_order_relaxed)) return "";
  std::string out = "seed=" + std::to_string(s.seed);
  for (int i = 0; i < kNumSites; ++i) {
    const SiteConfig& cfg = s.config[i];
    if (cfg.mode == Mode::kOff) continue;
    out += ',';
    out += kSiteNames[i];
    out += cfg.mode == Mode::kProb ? "=prob:" + format_prob(cfg.prob)
                                   : "=hit:" + std::to_string(cfg.nth);
  }
  return out;
}

}  // namespace moheco::fail
