// Internal dispatch plumbing shared between kernels.cpp (runtime selection +
// scalar reference) and the ISA-specific translation units (kernels_avx2.cpp,
// kernels_neon.cpp) that are compiled with per-file arch flags. Not part of
// the public API — include kernels.h instead.
#pragma once

#include <cstddef>

namespace acbm::stats::detail {

/// Function-pointer table for one ISA flavor. A null entry means "no
/// vectorized version for this kernel" and the dispatcher falls back to the
/// scalar reference for that kernel only (partial tables are how NEON ships
/// a subset without faking the rest).
struct KernelTable {
  /// Dense f64 gemv: out[o] = bias[o] + sum_i w[o*in+i] * x[i].
  void (*gemv)(const double* w, const double* bias, const double* x,
               double* out, std::size_t out_dim, std::size_t in) = nullptr;
  void (*gemv_tanh)(const double* w, const double* bias, const double* x,
                    double* out, std::size_t out_dim,
                    std::size_t in) = nullptr;
  /// Rows [row_begin,row_end) of C = A*B, row-major, k-ascending per element.
  void (*gemm_rows)(const double* a, const double* b, double* c,
                    std::size_t row_begin, std::size_t row_end,
                    std::size_t cols_a, std::size_t cols_b) = nullptr;
  /// One streamed row of the fused normal equations: upper-triangle
  /// ata[i][j>=i] += a_row[i]*a_row[j], atb[i] += a_row[i]*yr.
  void (*fne_row_update)(double* ata, double* atb, const double* a_row,
                         double yr, std::size_t k) = nullptr;
  /// f32 gemv over transposed (input-major) weights wt[i*out_dim + o].
  void (*gemv_t_f32)(const float* wt, const float* bias, const float* x,
                     float* out, std::size_t out_dim,
                     std::size_t in) = nullptr;
  void (*gemv_t_tanh_f32)(const float* wt, const float* bias, const float* x,
                          float* out, std::size_t out_dim,
                          std::size_t in) = nullptr;
};

/// Tables provided by the arch-specific TUs, one per ISA, every entry
/// bit-identical to the scalar reference; null when the TU is not built
/// for this target.
[[nodiscard]] const KernelTable* avx2_table() noexcept;
[[nodiscard]] const KernelTable* neon_table() noexcept;

}  // namespace acbm::stats::detail
