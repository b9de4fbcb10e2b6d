// Batch kernels over the CompiledProblem's server-contiguous signal tables.
//
// The hot loops of every evaluator reduce to a handful of shapes over the
// flat (user, sub-channel, server) signal table:
//
//   * received-power accumulation — adding/removing one user's signal row
//     into a per-(sub-channel, server) cache (IncrementalEvaluator), or
//     folding *all* offloaded rows of one sub-channel in at once (rebuild);
//   * co-channel interference sums — for each offloaded user, the sum of
//     every other same-sub-channel occupant's signal at the user's server
//     (Eq. 3), historically recomputed via O(S) Assignment::occupant()
//     lookups per user (RateEvaluator::interference_w);
//   * batch preview scoring — the candidate utility of offloading one user
//     to every server of a sub-channel at once (IncrementalEvaluator
//     drives this from its caches; see preview_offload_subchannel).
//
// This unit provides those shapes as explicit kernels: the independent
// dimension (servers for row accumulation, candidate slots for previews) is
// written as a `TSAJS_PRAGMA_SIMD` loop over contiguous memory, and
// multi-row accumulation hoists the destination lane into a register across
// a block of rows — one load/store pass instead of one per row.
//
// Bit-compatibility contract: every kernel performs the *exact*
// floating-point operation sequence of the scalar code it replaces —
// per-lane addition chains stay in row order, interference sums stay in
// ascending-server order — so the TSAJS_SIMD build option never changes a
// result bit. Golden hexfloat tests pin this, and the scalar references
// (interference_sums_scalar, the per-row add_row_scaled loop) stay as the
// other side of the equivalence tests and micro benches.
//
// Vectorization plumbing: `#pragma omp simd` is only meaningful when the
// compiler is invoked with -fopenmp-simd (the TSAJS_SIMD CMake option; no
// OpenMP runtime is linked). Without it the macro expands to nothing and
// the kernels still win on memory passes and avoided occupant() lookups.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "jtora/assignment.h"
#include "jtora/compiled_problem.h"

#if defined(TSAJS_SIMD)
#define TSAJS_PRAGMA_SIMD _Pragma("omp simd")
#else
#define TSAJS_PRAGMA_SIMD
#endif

namespace tsajs::jtora::batch {

/// True when this binary was built with the TSAJS_SIMD CMake option
/// (-fopenmp-simd; the pragmas are live).
[[nodiscard]] constexpr bool compiled_with_simd() noexcept {
#if defined(TSAJS_SIMD)
  return true;
#else
  return false;
#endif
}

/// dst[i] += scale * row[i] for i in [0, n). Elementwise (lane-independent),
/// bit-identical to the scalar loop for any flag set.
inline void add_row_scaled(double* dst, const double* row, double scale,
                           std::size_t n) noexcept {
  TSAJS_PRAGMA_SIMD
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] += scale * row[i];
  }
}

/// dst[i] += rows[0][i] + rows[1][i] + ... for i in [0, n), with each lane's
/// additions performed in row order — the exact sequence of applying
/// add_row_scaled(dst, rows[k], +1.0, n) for k = 0.. in turn, but with the
/// destination lane hoisted into a register across a block of rows (one
/// load/store pass per block of up to 8 rows instead of one per row).
void accumulate_rows(double* dst, const double* const* rows,
                     std::size_t num_rows, std::size_t n) noexcept;

/// Per-sub-channel occupant lists of an assignment in CSR form, gathered
/// once per evaluation sweep so the inner interference loops run over plain
/// arrays instead of repeated Assignment::occupant() lookups. Occupants of
/// each sub-channel appear in ascending server order (the summation order
/// of RateEvaluator::interference_w).
struct OccupantLists {
  /// CSR offsets, one per sub-channel plus the terminating total.
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> user;    ///< occupant user index
  std::vector<std::uint32_t> server;  ///< occupant's server

  void gather(const Assignment& x, std::size_t num_servers,
              std::size_t num_subchannels);
};

/// Co-channel interference (Eq. 3 denominator, noise excluded) seen by user
/// `u` offloaded at (s, j): the ascending-server-order sum of the other
/// occupants' signals at server s — bit-identical to
/// RateEvaluator::interference_w(x, s, j, u).
[[nodiscard]] double interference_at(const CompiledProblem& problem,
                                     const OccupantLists& lists, std::size_t u,
                                     std::size_t s, std::size_t j) noexcept;

/// Interference totals for every offloaded user of `x` (ascending user
/// order, one entry per offloaded user). Gathers the occupant lists once —
/// O(S*N + U_off * K) instead of the scalar path's O(U_off * S) occupant()
/// lookups. `out` is resized to x.num_offloaded().
void interference_sums(const CompiledProblem& problem, const Assignment& x,
                       std::vector<double>& out);

/// Scalar reference for interference_sums: the historical per-user
/// occupant() walk (one RateEvaluator::interference_w per offloaded user).
/// Kept as the baseline side of the equivalence tests and micro benches.
void interference_sums_scalar(const CompiledProblem& problem,
                              const Assignment& x, std::vector<double>& out);

}  // namespace tsajs::jtora::batch
