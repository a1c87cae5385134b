#pragma once
/// \file test_utils.hpp
/// \brief Shared helpers for the ptucker test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mps/runtime.hpp"
#include "obs/trace.hpp"
#include "tensor/matrix.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"

namespace ptucker::testing {

/// Deterministic pseudo-random field of the global multi-index. The same
/// seed yields the same global tensor through DistTensor::fill_global and
/// Tensor::fill_from, so distributed results can be checked against a
/// sequential oracle without keeping two fill bodies in sync by hand.
inline std::function<double(std::span<const std::size_t>)> splitmix_field(
    std::uint64_t seed) {
  return [seed](std::span<const std::size_t> idx) {
    std::uint64_t h = seed;
    for (std::size_t i : idx) h = util::splitmix64(h ^ (i + 0xABC));
    return static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5;
  };
}

/// Run an SPMD body on \p p ranks with a short deadlock timeout.
inline void run_ranks(int p, const std::function<void(mps::Comm&)>& body) {
  mps::Runtime rt(p);
  rt.set_recv_timeout_ms(30000);
  rt.run(body);
}

/// Number of spans in \p events named \p name, on any rank.
inline std::size_t count_spans(const std::vector<obs::TraceEvent>& events,
                               std::string_view name) {
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(),
      [&](const obs::TraceEvent& e) { return name == e.name; }));
}

/// Number of spans in \p events named \p name recorded on mps rank \p rank
/// with argument \p arg (the tensor mode, for the Fig. 8 kernel spans).
inline std::size_t count_spans(const std::vector<obs::TraceEvent>& events,
                               std::string_view name, int rank,
                               std::int64_t arg) {
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [&](const obs::TraceEvent& e) {
        return name == e.name && e.rank == rank && e.arg == arg;
      }));
}

/// Max |a - b| over two equal-sized buffers.
inline double max_diff(const double* a, const double* b, std::size_t n) {
  double m = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

inline double max_diff(const tensor::Tensor& a, const tensor::Tensor& b) {
  EXPECT_EQ(a.dims(), b.dims());
  if (a.dims() != b.dims()) return 1e300;
  return max_diff(a.data(), b.data(), a.size());
}

inline double max_diff(const tensor::Matrix& a, const tensor::Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 1e300;
  return max_diff(a.data(), b.data(), a.size());
}

/// ‖A^T A − I‖_max: orthonormality defect of the columns of A.
inline double orthonormality_defect(const tensor::Matrix& a) {
  const tensor::Matrix gram = tensor::Matrix::multiply(a, true, a, false);
  double defect = 0.0;
  for (std::size_t j = 0; j < gram.cols(); ++j) {
    for (std::size_t i = 0; i < gram.rows(); ++i) {
      const double target = (i == j) ? 1.0 : 0.0;
      defect = std::max(defect, std::fabs(gram(i, j) - target));
    }
  }
  return defect;
}

/// Pretty parameter names for grids/dims in parameterized tests.
inline std::string shape_name(const std::vector<int>& shape) {
  std::string s;
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(shape[i]);
  }
  return s;
}

inline std::string dims_name(const tensor::Dims& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(dims[i]);
  }
  return s;
}

}  // namespace ptucker::testing
