#include "dist/tsqr.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "lapack/lapack.hpp"
#include "mps/collectives.hpp"
#include "obs/trace.hpp"

namespace ptucker::dist {

namespace {

constexpr int kTagTsqrTree = 320;
constexpr int kTagTsqrExchange = 321;

/// Rows [rows.lo, rows.hi) of this rank's block of A = Y(n)^T, packed as a
/// column-major (rows.size() x local-Jn) buffer. Row c of the local A block
/// is the unfolding column with local (left, right) indices (c % left,
/// c / left).
std::vector<double> pack_rows(const tensor::Tensor& y, int mode,
                              util::Range rows) {
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  const std::size_t m = rows.size();
  std::vector<double> buf(m * s.mid);
  if (m == 0 || s.mid == 0) return buf;
  for (std::size_t j = 0; j < s.mid; ++j) {
    std::size_t l = rows.lo % s.left;
    std::size_t ri = rows.lo / s.left;
    for (std::size_t k = 0; k < m; ++k) {
      buf[k + j * m] = y[l + j * s.left + ri * s.left * s.mid];
      if (++l == s.left) {
        l = 0;
        ++ri;
      }
    }
  }
  return buf;
}

/// Full-width slab of A for this rank: its chunk of the processor column's
/// shared unfolding columns, against all Jn mode-n columns. Ranks of the
/// mode-n processor column own the same unfolding columns but different
/// mode-n blocks, so each sends chunk q of its block to column rank q and
/// assembles the received pieces at the senders' mode-n offsets. Zero-padded
/// to at least Jn rows so the local QR's m >= n holds even for empty chunks.
tensor::Matrix assemble_slab(const DistTensor& x, int mode) {
  const tensor::Tensor& y = x.local();
  const tensor::UnfoldShape s = tensor::unfold_shape(y.dims(), mode);
  const std::size_t jn = x.global_dim(mode);
  const std::size_t cols = s.left * s.right;  // local rows of A, pre-exchange

  const mps::Comm& mcomm = x.grid().mode_comm(mode);
  const int pn = mcomm.size();
  const int me = mcomm.rank();  // == grid coordinate in mode n
  const util::Range mine = util::uniform_block(cols, static_cast<std::size_t>(pn),
                                               static_cast<std::size_t>(me));
  const std::size_t rows_mine = mine.size();

  tensor::Matrix slab(std::max(rows_mine, jn), jn);

  // Sends are eager, so initiate every outgoing chunk before receiving (the
  // payload is captured at initiation, so the pack buffer can be dropped
  // immediately). A send or receive is skipped exactly when both sides can
  // see it is empty: the chunk partition (over the column-shared `cols`)
  // and each rank's mode-n block sizes are known grid-wide.
  for (int q = 0; q < pn; ++q) {
    if (q == me) continue;
    const util::Range chunk = util::uniform_block(
        cols, static_cast<std::size_t>(pn), static_cast<std::size_t>(q));
    if (chunk.size() == 0 || s.mid == 0) continue;
    const std::vector<double> buf = pack_rows(y, mode, chunk);
    mps::isend(mcomm, std::span<const double>(buf), q, kTagTsqrExchange)
        .wait();
  }
  // Post every receive up front, then pack the local chunk while the
  // transfers are in flight; completion and unpacking happen sender by
  // sender afterwards.
  std::vector<std::vector<double>> bufs(static_cast<std::size_t>(pn));
  std::vector<mps::CollectiveHandle> arrivals(static_cast<std::size_t>(pn));
  for (int q = 0; q < pn; ++q) {
    if (q == me) continue;
    const util::Range sender = x.mode_range_of(mode, q);
    if (rows_mine == 0 || sender.size() == 0) continue;
    std::vector<double>& buf = bufs[static_cast<std::size_t>(q)];
    buf.resize(rows_mine * sender.size());
    arrivals[static_cast<std::size_t>(q)] = mps::irecv(
        mcomm, std::span<double>(buf), q, kTagTsqrExchange);
  }
  if (rows_mine > 0 && s.mid > 0) {
    const std::vector<double> own = pack_rows(y, mode, mine);
    const std::size_t off = x.mode_range(mode).lo;
    for (std::size_t j = 0; j < s.mid; ++j) {
      std::memcpy(slab.col(off + j), own.data() + j * rows_mine,
                  rows_mine * sizeof(double));
    }
  }
  for (int q = 0; q < pn; ++q) {
    if (q == me) continue;
    const util::Range sender = x.mode_range_of(mode, q);
    if (rows_mine == 0 || sender.size() == 0) continue;
    arrivals[static_cast<std::size_t>(q)].wait();
    const std::vector<double>& buf = bufs[static_cast<std::size_t>(q)];
    for (std::size_t j = 0; j < sender.size(); ++j) {
      std::memcpy(slab.col(sender.lo + j), buf.data() + j * rows_mine,
                  rows_mine * sizeof(double));
    }
  }
  return slab;
}

/// Stack two Jn x Jn R factors and re-factor: the TSQR combine step.
tensor::Matrix combine_r(const tensor::Matrix& top,
                         const tensor::Matrix& bottom) {
  const std::size_t jn = top.rows();
  tensor::Matrix stacked(2 * jn, jn);
  for (std::size_t j = 0; j < jn; ++j) {
    std::memcpy(stacked.col(j), top.col(j), jn * sizeof(double));
    std::memcpy(stacked.col(j) + jn, bottom.col(j), jn * sizeof(double));
  }
  tensor::Matrix r(jn, jn);
  la::qr_r_factor(stacked.data(), 2 * jn, jn, 2 * jn, r.data(), jn);
  return r;
}

}  // namespace

tensor::Matrix tsqr_r_factor(const DistTensor& x, int mode) {
  PT_REQUIRE(mode >= 0 && mode < x.order(), "tsqr: mode out of range");
  obs::Span span("TSQR", mode);

  const std::size_t jn = x.global_dim(mode);
  const tensor::Matrix slab = assemble_slab(x, mode);
  tensor::Matrix r(jn, jn);
  if (jn > 0) {
    la::qr_r_factor(slab.data(), slab.rows(), jn, slab.rows(), r.data(), jn);
  }

  // After the column exchange every rank owns a disjoint set of A's rows, so
  // the binomial combine tree runs over the whole grid, root 0, then the
  // final R is broadcast.
  const mps::Comm& comm = x.grid().comm();
  const int p = comm.size();
  const int rank = comm.rank();
  // The combines themselves stay blocking — each tree level needs the
  // child's R before re-factoring — but the transfers run through the
  // handle API like every other collective path.
  int mask = 1;
  while (mask < p) {
    if ((rank & mask) != 0) {
      mps::isend(comm, std::span<const double>(r.span()), rank - mask,
                 kTagTsqrTree)
          .wait();
      break;
    }
    const int partner = rank | mask;
    if (partner < p) {
      tensor::Matrix other(jn, jn);
      mps::irecv(comm, std::span<double>(other.span()), partner, kTagTsqrTree)
          .wait();
      r = combine_r(r, other);
    }
    mask <<= 1;
  }
  mps::ibroadcast(comm, std::span<double>(r.span()), 0).wait();
  return r;
}

FactorResult factor_via_tsqr(const DistTensor& x, int mode,
                             const RankSelection& select) {
  const tensor::Matrix r = tsqr_r_factor(x, mode);
  obs::Span span("Evecs", mode);
  const std::size_t jn = r.rows();

  // Y(n) = R^T Q^T, so the left singular vectors of Y(n) are those of R^T;
  // R is small, so the SVD runs redundantly on every rank.
  const tensor::Matrix rt = r.transposed();
  const la::JacobiSvd svd = la::jacobi_svd(rt.data(), jn, jn, jn);

  FactorResult result;
  result.eigenvalues.resize(jn);
  for (std::size_t i = 0; i < jn; ++i) {
    result.eigenvalues[i] = svd.sigma[i] * svd.sigma[i];
  }
  result.rank = select.resolve(result.eigenvalues);
  result.u = tensor::Matrix(jn, result.rank);
  std::memcpy(result.u.data(), svd.u.data(),
              jn * result.rank * sizeof(double));
  detail::canonicalize_columns(result.u);
  return result;
}

}  // namespace ptucker::dist
