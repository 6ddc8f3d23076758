// Numeric backend probe for CI logs and quick local sanity: prints the CPU
// features the dispatch layer keys on (avx2+fma, avx512f, and sha_ni for
// util::Sha256), which backend is detected/active, then measures every num::
// kernel on every available backend and reports the speedup over scalar,
// and the SHA-256 digest rate of each available compression. No Google
// Benchmark dependency, so it runs everywhere the library builds.
//
// Flags (or SY_<KEY> env): --rows=N --dim=N --chol-n=N --reps=N --n=N
//   --require=<backend>  exit non-zero (2) when <backend> is unavailable on
//                        this machine — lets CI gate an avx512 leg
//                        conditionally ("run if the probe says yes") instead
//                        of failing on older hardware. With --require the
//                        throughput sweep is skipped; it is a pure probe.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "num/backend.h"
#include "num/kernels.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/sha256.h"
#include "util/sha256_compress.h"
#include "util/stopwatch.h"

using namespace sy;

namespace {

template <typename Fn>
double time_best_of(int reps, const Fn& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch timer;
    fn();
    best = std::min(best, timer.elapsed_seconds());
  }
  return best;
}

const char* yesno(bool b) { return b ? "yes" : "no"; }

// One throughput measurement per kernel, in elements (or factorizations)
// per second; the scalar row is the baseline the speedup columns divide by.
struct KernelRow {
  double dot_eps;
  double sqdist_eps;
  double axpy_eps;
  double rbf_rows_ps;
  double rff_freqs_ps;
  double chol_per_s;
};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto rows = static_cast<std::size_t>(args.get_int("rows", 2048));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 28));
  const auto vec_n = static_cast<std::size_t>(args.get_int("n", 4096));
  const auto chol_n = static_cast<std::size_t>(args.get_int("chol-n", 512));
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const std::string require = args.get("require", "");

  std::printf("sy_num_probe — cpu features: avx2=%s avx512f=%s sha_ni=%s\n",
              yesno(num::avx2::available()), yesno(num::avx512::available()),
              yesno(util::sha256_detail::shani_available()));
  std::printf("backends:");
  for (const num::Backend backend : num::all_backends()) {
    std::printf(" %s=%s", std::string(num::backend_name(backend)).c_str(),
                yesno(num::backend_available(backend)));
  }
  std::printf("\ndetected backend: %s, default active: %s\n",
              std::string(num::backend_name(num::detected_backend())).c_str(),
              std::string(num::backend_name(num::active_backend())).c_str());

  if (!require.empty()) {
    const auto wanted = num::parse_backend(require);
    if (!wanted) {
      std::fprintf(stderr, "sy_num_probe: unknown backend '%s'\n",
                   require.c_str());
      return 2;
    }
    if (!num::backend_available(*wanted)) {
      std::printf("require=%s: NOT available on this machine\n",
                  require.c_str());
      return 2;
    }
    std::printf("require=%s: available\n", require.c_str());
    return 0;
  }

  util::Rng rng(31);
  std::vector<double> data(rows * dim);
  for (auto& v : data) v = rng.gaussian();
  std::vector<double> center(dim);
  for (auto& v : center) v = rng.gaussian();
  std::vector<double> out(rows);
  std::vector<double> rff_out(2 * rows);
  const double gamma = 1.0 / static_cast<double>(dim);

  std::vector<double> va(vec_n), vb(vec_n), vy(vec_n);
  for (auto& v : va) v = rng.gaussian();
  for (auto& v : vb) v = rng.gaussian();
  for (auto& v : vy) v = rng.gaussian();

  // Random SPD for the factorization: B B^T + n I.
  std::vector<double> spd(chol_n * chol_n, 0.0);
  {
    std::vector<double> b(chol_n * chol_n);
    for (auto& v : b) v = rng.gaussian();
    for (std::size_t i = 0; i < chol_n; ++i) {
      for (std::size_t j = 0; j < chol_n; ++j) {
        spd[i * chol_n + j] = num::scalar::dot(
            {b.data() + i * chol_n, chol_n}, {b.data() + j * chol_n, chol_n});
      }
      spd[i * chol_n + i] += static_cast<double>(chol_n);
    }
  }

  // Keep the optimizer from dropping the reduction kernels.
  volatile double sink = 0.0;

  KernelRow scalar_row{};
  const num::Backend saved = num::active_backend();
  std::printf(
      "%-8s %12s %12s %12s %12s %12s %12s\n", "backend", "dot", "sqdist",
      "axpy", "rbf_row", "rff_row", "cholesky");
  for (const num::Backend backend : num::all_backends()) {
    if (!num::backend_available(backend)) continue;
    num::set_backend(backend);

    KernelRow row{};
    const double dot_s =
        time_best_of(reps, [&] { sink = num::dot(va, vb); });
    row.dot_eps = static_cast<double>(vec_n) / dot_s;
    const double sq_s =
        time_best_of(reps, [&] { sink = num::squared_distance(va, vb); });
    row.sqdist_eps = static_cast<double>(vec_n) / sq_s;
    const double axpy_s =
        time_best_of(reps, [&] { num::axpy(1e-9, va, vy); });
    row.axpy_eps = static_cast<double>(vec_n) / axpy_s;
    const double rbf_s = time_best_of(reps, [&] {
      num::rbf_row_kernel(data.data(), rows, dim, center.data(), dim, gamma,
                          out.data());
    });
    row.rbf_rows_ps = static_cast<double>(rows) / rbf_s;
    const double rff_s = time_best_of(reps, [&] {
      num::rff_transform_row(data.data(), rows, dim, center.data(), dim, 0.5,
                             rff_out.data());
    });
    row.rff_freqs_ps = static_cast<double>(rows) / rff_s;
    std::vector<double> a;
    const double chol_s = time_best_of(reps, [&] {
      a = spd;
      (void)num::cholesky_inplace(a.data(), chol_n, chol_n);
    });
    row.chol_per_s = 1.0 / chol_s;

    if (backend == num::Backend::kScalar) {
      scalar_row = row;
      std::printf(
          "%-8s %9.1f Me/s %9.1f Me/s %9.1f Me/s %9.2f Mr/s %9.2f Mr/s"
          " %9.2f ms\n",
          std::string(num::backend_name(backend)).c_str(),
          row.dot_eps / 1e6, row.sqdist_eps / 1e6, row.axpy_eps / 1e6,
          row.rbf_rows_ps / 1e6, row.rff_freqs_ps / 1e6, chol_s * 1e3);
    } else {
      std::printf(
          "%-8s %8.2fx sca %8.2fx sca %8.2fx sca %8.2fx sca %8.2fx sca"
          " %8.2fx sca\n",
          std::string(num::backend_name(backend)).c_str(),
          row.dot_eps / scalar_row.dot_eps,
          row.sqdist_eps / scalar_row.sqdist_eps,
          row.axpy_eps / scalar_row.axpy_eps,
          row.rbf_rows_ps / scalar_row.rbf_rows_ps,
          row.rff_freqs_ps / scalar_row.rff_freqs_ps,
          row.chol_per_s / scalar_row.chol_per_s);
    }
  }
  num::set_backend(saved);

  // SHA-256 over one ledger-sized model bundle, per available compression;
  // "selected" marks the one util::Sha256 runs on this CPU.
  namespace sha = util::sha256_detail;
  std::vector<std::uint8_t> bundle(364 * 1024);
  for (auto& b : bundle) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::pair<const char*, sha::CompressFn> paths[] = {
      {"portable", sha::compress_portable}, {"sha_ni", sha::compress_shani}};
  for (const auto& [name, compress] : paths) {
    if (compress == sha::compress_shani && !sha::shani_available()) continue;
    const double sha_s = time_best_of(reps, [&] {
      util::Sha256 h = sha::Access::with(compress);
      h.update(bundle.data(), bundle.size());
      sink = h.digest()[0];
    });
    std::printf("sha256 %-9s %9.1f MB/s over %zu KB%s\n", name,
                static_cast<double>(bundle.size()) / sha_s / 1e6,
                bundle.size() / 1024,
                compress == sha::selected_compress() ? " (selected)" : "");
  }
  (void)sink;
  return 0;
}
