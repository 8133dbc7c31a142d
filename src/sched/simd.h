// Portable SIMD layer for the batched trial kernel.
//
// The TrialBatch sweep (trial_batch.cpp) spends its time in one lane-minor
// op per segment of the trial strings: each lane's ready time (a
// max-accumulate over the segment's predecessors' finish rows) feeds its
// start/finish/makespan update in the same pass, so the ready time stays in
// registers. The op is a pure elementwise max/add chain over independent
// lanes, so a width-W vector strip with a scalar tail performs the exact
// same floating-point operations on the exact same operands as the scalar
// loop. Only the order of a lane's max-reduction over its predecessors may
// differ, and every operand is a non-negative finite double (no NaN, no
// -0.0), for which max is order-independent and vector max is
// indistinguishable from std::max down to the bit pattern: results are
// bit-identical by construction.
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

/// One segment of the TrialBatch sweep, as the fused strip op reads it.
/// Every row holds one double per lane; the rows never alias (distinct SoA
/// rows).
struct SegmentStrip {
  /// Ready time contributed by the predecessors inside the evaluator's
  /// checkpoint prefix, shared by every lane.
  double ready0 = 0.0;
  /// The predecessors the sweep simulates: `preds` finish rows and, for
  /// each, its transfer time to this segment (the same for every lane).
  const double* const* pred_finish = nullptr;
  const double* pred_transfer = nullptr;
  std::size_t preds = 0;
  /// The edited task's finish row and per-lane transfer row when it is a
  /// predecessor (each lane runs it on its own machine); null otherwise.
  const double* edit_finish = nullptr;
  const double* edit_transfer = nullptr;
  /// The segment's execution time and the rows its step updates.
  double exec = 0.0;
  double* avail = nullptr;     // its machine's availability
  double* finish = nullptr;    // its task's finish time
  double* makespan = nullptr;  // the running makespan
};

/// The TrialBatch sweep's strip op, as a function pointer bound to one
/// backend. The scalar backend is the reference loop verbatim.
struct BatchKernelOps {
  /// For every lane i in [0, n):
  ///   ready = max(ready0, pred_finish[j][i] + pred_transfer[j] for each j,
  ///               edit_finish[i] + edit_transfer[i] when given);
  ///   fin = max(ready, avail[i]) + exec;
  ///   finish[i] = avail[i] = fin;  makespan[i] = max(makespan[i], fin).
  void (*segment)(const SegmentStrip& s, std::size_t n);
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
