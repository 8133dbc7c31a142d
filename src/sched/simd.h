// Portable SIMD layer for the batched trial kernel.
//
// The TrialBatch sweep (trial_batch.cpp) spends its time in two
// lane-minor inner loops over contiguous doubles — a max-accumulate of
// predecessor ready times and the start/finish/makespan schedule update.
// Both are pure elementwise max/add chains over independent lanes, so a
// width-W vector strip with a scalar tail performs the exact same
// floating-point operation on the exact same operands as the scalar loop:
// results are bit-identical by construction (every operand is a
// non-negative finite double — no NaN, no -0.0 — for which vector max is
// indistinguishable from std::max down to the bit pattern).
//
// This header keeps the abstraction intrinsics-free: backends live in
// simd.cpp (scalar always; AVX2 on x86, compiled via a per-function target
// attribute so the translation unit needs no global -mavx2) and are reached
// through a per-kernel table of function pointers resolved once per
// TrialBatch, never per strip.
//
// Kernel selection: SimdKernel names a concrete backend; KernelChoice is
// the user-facing knob (auto | scalar) threaded through
// `perf_hotpath --kernel=...` and the SEHC_KERNEL environment override that
// every evaluator honors. `auto` resolves to AVX2 where the CPU reports it
// at runtime (cpuid) and to scalar everywhere else, which is what lets
// differential suites force both kernels portably and skip where they
// coincide.
#pragma once

#include <cstddef>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sehc {

/// Concrete batch-kernel backends: the reference loops and 4-wide AVX2.
enum class SimdKernel { kScalar, kAvx2 };

/// The user-facing selection knob: `auto` picks the best supported backend,
/// `scalar` forces the reference loops.
enum class KernelChoice { kAuto, kScalar };

/// Lower-case backend name: "scalar" or "avx2".
const char* kernel_name(SimdKernel k);

/// kAvx2 where this build has the AVX2 strips and the CPU reports AVX2 at
/// runtime (cpuid); kScalar otherwise.
SimdKernel detect_simd_kernel();

/// "auto" | "scalar" -> KernelChoice; nullopt on anything else.
std::optional<KernelChoice> parse_kernel_choice(std::string_view s);

/// The SEHC_KERNEL environment override (default kAuto when unset or
/// empty). Throws sehc::Error on an unrecognized value — a typo'd override
/// must never silently run the wrong kernel.
KernelChoice kernel_choice_from_env();

/// Resolves a choice against the running CPU: kScalar stays scalar, kAuto
/// picks detect_simd_kernel().
SimdKernel resolve_kernel(KernelChoice choice);

/// The two lane-minor strip kernels of the TrialBatch sweep, as
/// function pointers bound to one backend. Each processes n contiguous
/// doubles as width-W strips plus a scalar tail; the scalar backend is the
/// reference loop verbatim.
struct BatchKernelOps {
  /// ready[i] = max(ready[i], f[i] + tr) for i in [0, n) — one shared
  /// predecessor's finish row folded into every lane's ready time.
  void (*ready_maxadd)(double* ready, const double* f, double tr,
                       std::size_t n);
  /// For i in [0, n): start = max(ready[i], am[i]); fin = start + exec;
  /// ft[i] = am[i] = fin; ms[i] = max(ms[i], fin). The arrays never alias
  /// (distinct SoA rows).
  void (*schedule_update)(const double* ready, double* am, double* ft,
                          double* ms, double exec, std::size_t n);
};

/// The op table for one backend (static storage; valid forever).
const BatchKernelOps& batch_kernel_ops(SimdKernel k);

/// Minimal aligned allocator so the SoA backing stores start on a cache
/// line (64 bytes covers every vector width here). The strips themselves
/// use unaligned loads — row bases are offset by lane strides that need not
/// be multiples of W — but an aligned base keeps whole rows from straddling
/// an extra line and makes the layout predictable for profiling.
template <typename T, std::size_t Align = 64>
struct AlignedAllocator {
  using value_type = T;
  // The non-type Align parameter defeats allocator_traits' automatic
  // rebind, so spell it out.
  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U, Align>&) const noexcept {
    return false;
  }
};

/// A std::vector whose buffer is 64-byte aligned (SoA lane stores).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace sehc
