// Backend implementations of the TrialBatch strip op (see simd.h for the
// bit-identity argument). Both backends run the same elementwise max/add
// recurrence; only the strip width differs. The scalar function is the
// reference loop verbatim — the AVX2 backend must match it bit for bit on
// every input the sweep can produce.
#include "sched/simd.h"

#include <algorithm>
#include <cstdlib>

#include "core/error.h"

// AVX2 strips compile with a per-function target attribute, so the
// translation unit needs no global -mavx2.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SEHC_AVX2 1
#define SEHC_TARGET_AVX2 __attribute__((target("avx2")))
#include <immintrin.h>
#endif

namespace sehc {

namespace {

// --- Scalar reference --------------------------------------------------------

/// Lane i of the op: the reference loop's body, and the AVX2 strips' tail.
inline void segment_lane(const SegmentStrip& s, std::size_t i) {
  double ready = s.ready0;
  for (std::size_t j = 0; j < s.preds; ++j) {
    ready = std::max(ready, s.pred_finish[j][i] + s.pred_transfer[j]);
  }
  if (s.edit_finish != nullptr) {
    ready = std::max(ready, s.edit_finish[i] + s.edit_transfer[i]);
  }
  const double fin = std::max(ready, s.avail[i]) + s.exec;
  s.finish[i] = fin;
  s.avail[i] = fin;
  s.makespan[i] = std::max(s.makespan[i], fin);
}

void segment_scalar(const SegmentStrip& s, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) segment_lane(s, i);
}

// --- AVX2 --------------------------------------------------------------------

#if SEHC_AVX2

/// Folds lanes [i, i + 4) of every predecessor into `ready`.
SEHC_TARGET_AVX2 inline __m256d ready4(const SegmentStrip& s, std::size_t i,
                                       __m256d ready) {
  for (std::size_t j = 0; j < s.preds; ++j) {
    ready = _mm256_max_pd(
        ready, _mm256_add_pd(_mm256_loadu_pd(s.pred_finish[j] + i),
                             _mm256_broadcast_sd(s.pred_transfer + j)));
  }
  if (s.edit_finish != nullptr) {
    ready = _mm256_max_pd(ready,
                          _mm256_add_pd(_mm256_loadu_pd(s.edit_finish + i),
                                        _mm256_loadu_pd(s.edit_transfer + i)));
  }
  return ready;
}

/// The step of lanes [i, i + 4) from their ready times.
SEHC_TARGET_AVX2 inline void update4(const SegmentStrip& s, std::size_t i,
                                     __m256d ready, __m256d exec) {
  const __m256d fin =
      _mm256_add_pd(_mm256_max_pd(ready, _mm256_loadu_pd(s.avail + i)), exec);
  _mm256_storeu_pd(s.finish + i, fin);
  _mm256_storeu_pd(s.avail + i, fin);
  _mm256_storeu_pd(s.makespan + i,
                   _mm256_max_pd(_mm256_loadu_pd(s.makespan + i), fin));
}

/// Eight lanes per iteration as two independent 4-lane accumulators, so the
/// max chains of the two halves overlap; then one 4-lane step and the
/// scalar tail.
SEHC_TARGET_AVX2
void segment_avx2(const SegmentStrip& s, std::size_t n) {
  const __m256d ready0 = _mm256_set1_pd(s.ready0);
  const __m256d exec = _mm256_set1_pd(s.exec);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d lo = ready0;
    __m256d hi = ready0;
    for (std::size_t j = 0; j < s.preds; ++j) {
      const double* const row = s.pred_finish[j] + i;
      const __m256d tr = _mm256_broadcast_sd(s.pred_transfer + j);
      lo = _mm256_max_pd(lo, _mm256_add_pd(_mm256_loadu_pd(row), tr));
      hi = _mm256_max_pd(hi, _mm256_add_pd(_mm256_loadu_pd(row + 4), tr));
    }
    if (s.edit_finish != nullptr) {
      const double* const row = s.edit_finish + i;
      const double* const tr = s.edit_transfer + i;
      lo = _mm256_max_pd(
          lo, _mm256_add_pd(_mm256_loadu_pd(row), _mm256_loadu_pd(tr)));
      hi = _mm256_max_pd(hi, _mm256_add_pd(_mm256_loadu_pd(row + 4),
                                           _mm256_loadu_pd(tr + 4)));
    }
    update4(s, i, lo, exec);
    update4(s, i + 4, hi, exec);
  }
  if (i + 4 <= n) {
    update4(s, i, ready4(s, i, ready0), exec);
    i += 4;
  }
  for (; i < n; ++i) segment_lane(s, i);
}
#endif  // SEHC_AVX2

}  // namespace

const char* kernel_name(SimdKernel k) {
  return k == SimdKernel::kAvx2 ? "avx2" : "scalar";
}

SimdKernel detect_simd_kernel() {
#if SEHC_AVX2
  if (__builtin_cpu_supports("avx2")) return SimdKernel::kAvx2;
#endif
  return SimdKernel::kScalar;
}

std::optional<KernelChoice> parse_kernel_choice(std::string_view s) {
  if (s == "auto") return KernelChoice::kAuto;
  if (s == "scalar") return KernelChoice::kScalar;
  return std::nullopt;
}

KernelChoice kernel_choice_from_env() {
  const char* env = std::getenv("SEHC_KERNEL");
  if (env == nullptr || *env == '\0') return KernelChoice::kAuto;
  const std::optional<KernelChoice> choice = parse_kernel_choice(env);
  SEHC_CHECK(choice.has_value(),
             "SEHC_KERNEL must be one of auto|scalar");
  return *choice;
}

SimdKernel resolve_kernel(KernelChoice choice) {
  return choice == KernelChoice::kScalar ? SimdKernel::kScalar
                                         : detect_simd_kernel();
}

const BatchKernelOps& batch_kernel_ops(SimdKernel k) {
  static const BatchKernelOps scalar_ops{segment_scalar};
#if SEHC_AVX2
  static const BatchKernelOps avx2_ops{segment_avx2};
  if (k == SimdKernel::kAvx2) return avx2_ops;
#endif
  // A build without the AVX2 backend runs the reference loops.
  (void)k;
  return scalar_ops;
}

}  // namespace sehc
