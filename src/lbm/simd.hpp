#pragma once
/// \file simd.hpp
/// KernelBackend — which ISA instantiation of the row kernels the
/// dispatching entry points (fused_collide_stream, the density and force
/// kernels) run. There is one fast path, the row tiles of the
/// StreamingPlan; the backends differ only in how a row's lanes are
/// lowered:
///
///  * `autovec` — the portable instantiation: a generic vector of
///    kTileWidth doubles that the compiler lowers to the build's
///    baseline ISA. The only row backend in `-DSLIPFLOW_DISABLE_SIMD=ON`
///    builds and on non-x86 targets.
///  * `avx2` / `avx512` — `<immintrin.h>` instantiations of the same
///    row kernels, compiled in per-ISA translation units and selected
///    at runtime by CPUID. Written without FMA so their results are
///    bit-identical to the portable rows and to the legacy reference
///    kernels (see DESIGN.md).
///  * `scalar` — an alias of `autovec`, kept parseable for the benchmark
///    harness (see parse_kernel_backend).
///
/// The reference against which every backend is pinned is not a backend:
/// it is lbm::reference_phase on the legacy per-cell kernels, which never
/// dispatch.
///
/// The active backend is a process-global: the widest supported backend
/// by default (avx512 > avx2 > autovec), overridable with
/// set_kernel_backend() (the `--kernel-backend` flag on the worker and
/// the benches) or SLIPFLOW_KERNEL_BACKEND.

#include <optional>
#include <string_view>
#include <vector>

namespace slipflow::lbm {

/// Cells per AoSoA tile: 8 doubles — one AVX-512 register, two AVX2
/// registers, a whole cache line. Also the unit the per-direction field
/// stride is padded to (DistField).
inline constexpr int kTileWidth = 8;

/// `scalar` dispatches to the autovec rows. It stays a backend name only
/// because the benchmark harness reads micro_lbm_kernels'
/// mlups_backend_scalar; retire it together with that key.
enum class KernelBackend { scalar, autovec, avx2, avx512 };

const char* to_string(KernelBackend b);
/// Inverse of to_string; nullopt for unknown names.
std::optional<KernelBackend> parse_kernel_backend(std::string_view name);

/// Is the backend's code in this binary? scalar/autovec always are; the
/// intrinsic backends are absent under SLIPFLOW_DISABLE_SIMD, on non-x86
/// targets, or when the compiler lacks the -m flags.
bool kernel_backend_compiled(KernelBackend b);
/// kernel_backend_compiled && the CPU executes it (CPUID).
bool kernel_backend_supported(KernelBackend b);
/// Every supported backend, scalar first (test and bench sweeps iterate
/// this).
std::vector<KernelBackend> supported_kernel_backends();
/// The backend a fresh process dispatches to (see file comment).
KernelBackend default_kernel_backend();

/// Process-global backend read by the dispatching kernels each call.
KernelBackend active_kernel_backend();
/// Override the active backend; requires kernel_backend_supported(b).
void set_kernel_backend(KernelBackend b);

}  // namespace slipflow::lbm
