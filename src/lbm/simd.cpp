#include "lbm/simd.hpp"

#include <atomic>
#include <cstdlib>

#include "util/require.hpp"

namespace slipflow::lbm {

namespace {

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
bool cpu_has_avx2() { return __builtin_cpu_supports("avx2") != 0; }
bool cpu_has_avx512f() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool cpu_has_avx2() { return false; }
bool cpu_has_avx512f() { return false; }
#endif

/// -1 = no override (use the default); otherwise a KernelBackend value.
std::atomic<int> g_override{-1};

}  // namespace

const char* to_string(KernelBackend b) {
  switch (b) {
    case KernelBackend::scalar:
      return "scalar";
    case KernelBackend::autovec:
      return "autovec";
    case KernelBackend::avx2:
      return "avx2";
    case KernelBackend::avx512:
      return "avx512";
  }
  return "?";
}

std::optional<KernelBackend> parse_kernel_backend(std::string_view name) {
  // "scalar" runs the portable rows, exactly as "autovec" does. The name
  // stays parseable (worker --kernel-backend, SLIPFLOW_KERNEL_BACKEND)
  // and listed only because the benchmark harness reads the
  // micro_lbm_kernels key mlups_backend_scalar.
  if (name == "scalar") return KernelBackend::scalar;
  if (name == "autovec") return KernelBackend::autovec;
  if (name == "avx2") return KernelBackend::avx2;
  if (name == "avx512") return KernelBackend::avx512;
  return std::nullopt;
}

bool kernel_backend_compiled(KernelBackend b) {
  switch (b) {
    case KernelBackend::scalar:
    case KernelBackend::autovec:
      return true;
    case KernelBackend::avx2:
#if defined(SLIPFLOW_HAVE_AVX2)
      return true;
#else
      return false;
#endif
    case KernelBackend::avx512:
#if defined(SLIPFLOW_HAVE_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool kernel_backend_supported(KernelBackend b) {
  if (!kernel_backend_compiled(b)) return false;
  switch (b) {
    case KernelBackend::scalar:
    case KernelBackend::autovec:
      return true;
    case KernelBackend::avx2:
      return cpu_has_avx2();
    case KernelBackend::avx512:
      return cpu_has_avx512f();
  }
  return false;
}

std::vector<KernelBackend> supported_kernel_backends() {
  std::vector<KernelBackend> out;
  for (KernelBackend b : {KernelBackend::scalar, KernelBackend::autovec,
                          KernelBackend::avx2, KernelBackend::avx512})
    if (kernel_backend_supported(b)) out.push_back(b);
  return out;
}

KernelBackend default_kernel_backend() {
  // Environment override (the programmatic set_kernel_backend and the
  // --kernel-backend flags still win): lets tests and CI pin a backend
  // without threading a flag through every harness.
  if (const char* env = std::getenv("SLIPFLOW_KERNEL_BACKEND")) {
    const std::optional<KernelBackend> b = parse_kernel_backend(env);
    if (b && kernel_backend_supported(*b)) return *b;
  }
  if (kernel_backend_supported(KernelBackend::avx512))
    return KernelBackend::avx512;
  if (kernel_backend_supported(KernelBackend::avx2)) return KernelBackend::avx2;
  return KernelBackend::autovec;
}

KernelBackend active_kernel_backend() {
  const int o = g_override.load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<KernelBackend>(o);
  static const KernelBackend def = default_kernel_backend();
  return def;
}

void set_kernel_backend(KernelBackend b) {
  SLIPFLOW_REQUIRE_MSG(kernel_backend_supported(b),
                       "kernel backend not supported on this build/CPU");
  g_override.store(static_cast<int>(b), std::memory_order_relaxed);
}

}  // namespace slipflow::lbm
