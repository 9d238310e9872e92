#include "src/linalg/simd_caps.hpp"

namespace moheco::linalg {
namespace {

SimdCaps probe() {
  SimdCaps caps;
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  caps.avx2 = __builtin_cpu_supports("avx2") != 0;
  caps.avx512f = __builtin_cpu_supports("avx512f") != 0;
  caps.max_lane_width = caps.avx512f ? 8 : caps.avx2 ? 4 : 2;
#endif
  return caps;
}

}  // namespace

const SimdCaps& simd_caps() {
  static const SimdCaps caps = probe();
  return caps;
}

}  // namespace moheco::linalg
