// Host SIMD capability report.
//
// simd_caps() probes the CPU once and reports which vector ISAs it
// executes.  Nothing in the solvers dispatches on it: it is host identity
// for obs::build_json() (`moheco_cli --version`, `op=ping`) and the bench
// headers, so numbers measured on different machines can be told apart.
#pragma once

namespace moheco::linalg {

struct SimdCaps {
  bool avx2 = false;     ///< host executes AVX2 (4-double ymm ops)
  bool avx512f = false;  ///< host executes AVX-512F (8-double zmm ops)
  /// Widest vector width (doubles per op) the host executes: 8 on
  /// AVX-512F, 4 on AVX2, else 2 (SSE2, the x86-64 baseline).
  int max_lane_width = 2;
};

/// Host capabilities, probed once (CPUID via __builtin_cpu_supports on
/// x86; the baseline report elsewhere).
const SimdCaps& simd_caps();

}  // namespace moheco::linalg
