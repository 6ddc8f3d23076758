/// \file
/// Runtime CPU dispatch for the numeric kernel layer.
///
/// src/num/ owns the hot numeric kernels (dot, squared_distance, axpy, the
/// serial row sums, the fused RBF row kernel, the RFF transform row, and the
/// blocked Cholesky factorization) behind a process-wide backend selector. The scalar backend
/// is the bit-exact reference: it performs exactly the operation sequence of
/// the historical hand-written loops in ml/ and signal/, so results on
/// kScalar are bit-identical to the pre-num:: code. The SIMD backends (AVX2,
/// AVX-512) reorder reductions (lane-parallel partial sums, FMA contraction)
/// and match scalar to within 1e-12 relative tolerance — asserted by
/// tests/num_kernels_test, remainder lanes included.
///
/// Selection order at startup:
///   1. SY_NUM_BACKEND environment variable ("scalar" | "avx2" | "avx512" |
///      "auto", case-insensitive). An unknown value fails fast (the first
///      kernel call throws, naming the compiled backends) instead of
///      silently falling back; a SIMD backend this CPU cannot run downgrades
///      to the detected backend with a warning (dispatching into it would be
///      an illegal instruction, not a slow path).
///   2. Otherwise the best backend the CPU supports
///      (AVX-512F > AVX2+FMA > scalar).
/// Tests and benchmarks may override at any time via set_backend().
#pragma once

#include <optional>
#include <span>
#include <string_view>

namespace sy::num {

/// The compiled numeric backends, in ascending preference order.
enum class Backend {
  kScalar,  ///< portable reference, bit-exact contract
  kAvx2,    ///< AVX2 + FMA (x86-64), tolerance contract
  kAvx512,  ///< AVX-512F (x86-64), 8-wide doubles + masked remainder lanes
};

/// Human-readable backend name ("scalar", "avx2", "avx512").
std::string_view backend_name(Backend backend);

/// Every compiled backend, ascending preference order (kScalar first). The
/// backend-agnostic test sweeps and the probe binary iterate this so a new
/// backend (NEON next) is additive — no per-backend test edits.
std::span<const Backend> all_backends();

/// True when this CPU can execute `backend`'s code path (always true for
/// kScalar).
bool backend_available(Backend backend);

/// Parses "scalar" / "avx2" / "avx512" / "auto", case-insensitively; "auto"
/// resolves to detected_backend(). Returns nullopt for anything else.
std::optional<Backend> parse_backend(std::string_view name);

/// Resolves an SY_NUM_BACKEND value: case-insensitive parse, then
/// availability check. Throws std::invalid_argument naming the compiled
/// backends on an unknown value (fail fast — a typo must not silently
/// fall back to auto-detection); downgrades an unavailable SIMD request to
/// detected_backend() with a warning. Exposed for tests.
Backend backend_from_env_value(std::string_view value);

/// Best backend this CPU supports (kAvx512 requires AVX-512F, kAvx2
/// requires AVX2 and FMA).
Backend detected_backend();

/// The backend the dispatched num:: entry points currently use.
Backend active_backend();

/// Overrides the active backend (tests, benchmarks, the --backend flags).
/// Throws std::invalid_argument if the CPU cannot run `backend`.
void set_backend(Backend backend);

}  // namespace sy::num
