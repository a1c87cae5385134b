#pragma once
/// \file test_utils.hpp
/// \brief Shared helpers for the ptucker test suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "blas/blas.hpp"
#include "mps/runtime.hpp"
#include "obs/registry.hpp"
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

/// Current value of the registry counter \p name.
inline std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name).value();
}

/// Registry counter deltas against a baseline taken at construction:
/// `delta("serve.cache.hits")` is how far that counter grew since. A name
/// first registered after the baseline counts from 0.
class CounterDelta {
 public:
  CounterDelta() : base_(obs::registry().snapshot().counters) {}
  [[nodiscard]] std::uint64_t operator()(const char* name) const {
    const auto it = base_.find(name);
    return counter_value(name) - (it == base_.end() ? 0 : it->second);
  }

 private:
  std::map<std::string, std::uint64_t> base_;
};

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

/// Per-slice references for the local kernels: the paper's "multiple
/// subroutine calls to respect the local layout", one BLAS3 call per
/// right-slice of the (left, mid, right) mode view. The batched engine
/// clips its KC slabs at slice boundaries so it must match these bit for
/// bit. The TTM loops over slices in every mode; the Gram kernels make the
/// same single call as the engine when left == 1.
inline tensor::Tensor per_slice_ttm(const tensor::Tensor& y,
                                    const tensor::Matrix& m, int mode) {
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  tensor::Dims dims = y.dims();
  dims[static_cast<std::size_t>(mode)] = m.rows();
  tensor::Tensor z(dims);
  for (std::size_t r = 0; r < s.right; ++r) {
    blas::gemm(blas::Trans::No, blas::Trans::Yes, s.left, m.rows(), s.mid,
               1.0, y.data() + r * s.left * s.mid, s.left, m.data(), m.rows(),
               0.0, z.data() + r * s.left * m.rows(), s.left);
  }
  return z;
}

inline tensor::Matrix per_slice_gram(const tensor::Tensor& y, int mode) {
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  tensor::Matrix gram(s.mid, s.mid);
  if (s.left == 1) {
    blas::syrk_full(blas::Trans::No, s.mid, s.right, 1.0, y.data(), s.mid,
                    0.0, gram.data(), s.mid);
    return gram;
  }
  for (std::size_t r = 0; r < s.right; ++r) {
    blas::syrk_full(blas::Trans::Yes, s.mid, s.left, 1.0,
                    y.data() + r * s.left * s.mid, s.left, r == 0 ? 0.0 : 1.0,
                    gram.data(), s.mid);
  }
  return gram;
}

inline tensor::Matrix per_slice_gram_sym(const tensor::Tensor& y, int mode) {
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  tensor::Matrix gram(s.mid, s.mid);
  if (s.left == 1) {
    blas::syrk_lower(blas::Trans::No, s.mid, s.right, 1.0, y.data(), s.mid,
                     0.0, gram.data(), s.mid);
  } else {
    for (std::size_t r = 0; r < s.right; ++r) {
      blas::syrk_lower(blas::Trans::Yes, s.mid, s.left, 1.0,
                       y.data() + r * s.left * s.mid, s.left,
                       r == 0 ? 0.0 : 1.0, gram.data(), s.mid);
    }
  }
  blas::symmetrize_from_lower(s.mid, gram.data(), s.mid);
  return gram;
}

inline tensor::Matrix per_slice_cross_gram(const tensor::Tensor& y,
                                           const tensor::Tensor& w,
                                           int mode) {
  const tensor::UnfoldShape sy = tensor::unfold_shape(y.dims(), mode);
  const tensor::UnfoldShape sw = tensor::unfold_shape(w.dims(), mode);
  tensor::Matrix c(sy.mid, sw.mid);
  if (sy.left == 1) {
    blas::gemm(blas::Trans::No, blas::Trans::Yes, sy.mid, sw.mid, sy.right,
               1.0, y.data(), sy.mid, w.data(), sw.mid, 0.0, c.data(), sy.mid);
    return c;
  }
  for (std::size_t r = 0; r < sy.right; ++r) {
    blas::gemm(blas::Trans::Yes, blas::Trans::No, sy.mid, sw.mid, sy.left,
               1.0, y.data() + r * sy.left * sy.mid, sy.left,
               w.data() + r * sw.left * sw.mid, sw.left, r == 0 ? 0.0 : 1.0,
               c.data(), sy.mid);
  }
  return c;
}

/// Path of the checked-in fixture \p name under tests/data.
inline std::string test_data_path(const char* name) {
  return (std::filesystem::path(__FILE__).parent_path() / "data" / name)
      .string();
}

/// Write \p t as a legacy PTT1 dense tensor file (docs/FORMATS.md):
///   "PTT1" | u64 order N | u64 dims[N] | f64 data (first-index-fastest).
/// The library only reads PTT1; tests use this to produce legacy inputs.
inline void write_ptt1(const std::string& path, const tensor::Tensor& t) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  auto put_u64 = [&](std::uint64_t v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  os.write("PTT1", 4);
  put_u64(static_cast<std::uint64_t>(t.order()));
  for (int n = 0; n < t.order(); ++n) put_u64(t.dim(n));
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.size() * sizeof(double)));
  ASSERT_TRUE(os.good()) << "cannot write " << path;
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

/// Parameter name from one tag character per value:
/// tagged_name("mnk", std::tuple{4, 8, 16}) == "m4n8k16". Built by
/// appending; GCC 12 reports a false -Wrestrict on `"m" + std::to_string(..)`
/// chains once they are inlined.
template <typename... Ts>
std::string tagged_name(std::string_view tags,
                        const std::tuple<Ts...>& values) {
  std::string s;
  std::size_t i = 0;
  std::apply(
      [&](const auto&... v) {
        ((s += tags[i++], s += std::to_string(v)), ...);
      },
      values);
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
