// Backend implementations of the TrialBatch strip kernels (see simd.h for
// the bit-identity argument). Both backends run the same elementwise
// max/add recurrence; only the strip width differs. The scalar functions
// are the reference loops verbatim — the AVX2 backend must match them bit
// for bit on every input the sweep can produce.
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

void ready_maxadd_scalar(double* ready, const double* f, double tr,
                         std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    ready[i] = std::max(ready[i], f[i] + tr);
  }
}

void schedule_update_scalar(const double* ready, double* am, double* ft,
                            double* ms, double exec, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double start = std::max(ready[i], am[i]);
    const double fin = start + exec;
    ft[i] = fin;
    am[i] = fin;
    if (fin > ms[i]) ms[i] = fin;
  }
}

// --- AVX2 --------------------------------------------------------------------

#if SEHC_AVX2

SEHC_TARGET_AVX2
void ready_maxadd_avx2(double* ready, const double* f, double tr,
                       std::size_t n) {
  const __m256d vtr = _mm256_set1_pd(tr);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vf = _mm256_loadu_pd(f + i);
    const __m256d vr = _mm256_loadu_pd(ready + i);
    _mm256_storeu_pd(ready + i, _mm256_max_pd(vr, _mm256_add_pd(vf, vtr)));
  }
  for (; i < n; ++i) ready[i] = std::max(ready[i], f[i] + tr);
}

SEHC_TARGET_AVX2
void schedule_update_avx2(const double* ready, double* am, double* ft,
                          double* ms, double exec, std::size_t n) {
  const __m256d vexec = _mm256_set1_pd(exec);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vstart =
        _mm256_max_pd(_mm256_loadu_pd(ready + i), _mm256_loadu_pd(am + i));
    const __m256d vfin = _mm256_add_pd(vstart, vexec);
    _mm256_storeu_pd(ft + i, vfin);
    _mm256_storeu_pd(am + i, vfin);
    _mm256_storeu_pd(ms + i, _mm256_max_pd(_mm256_loadu_pd(ms + i), vfin));
  }
  for (; i < n; ++i) {
    const double start = std::max(ready[i], am[i]);
    const double fin = start + exec;
    ft[i] = fin;
    am[i] = fin;
    if (fin > ms[i]) ms[i] = fin;
  }
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
  static const BatchKernelOps scalar_ops{ready_maxadd_scalar,
                                         schedule_update_scalar};
#if SEHC_AVX2
  static const BatchKernelOps avx2_ops{ready_maxadd_avx2,
                                       schedule_update_avx2};
  if (k == SimdKernel::kAvx2) return avx2_ops;
#endif
  // A build without the AVX2 backend runs the reference loops.
  (void)k;
  return scalar_ops;
}

}  // namespace sehc
