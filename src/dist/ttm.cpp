#include "dist/ttm.hpp"

#include <algorithm>

#include "costmodel/collective_model.hpp"
#include "costmodel/tucker_model.hpp"
#include "mps/collectives.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace ptucker::dist {

namespace {

/// M restricted to the columns matching this rank's mode-n row range.
tensor::Matrix my_column_block(const tensor::Matrix& m,
                               const util::Range& range) {
  return m.col_block(range);
}

/// Blocked Alg. 3, software-pipelined: Pn rounds; round l multiplies by the
/// l-th row block of M and binomial-reduces the partial to the rank owning
/// output block l. The reduce is initiated nonblocking and completed only
/// after round l+1's local multiply, so round l's tree traffic drains while
/// the next partial is being computed. ireduce captures its input at
/// initiation, so the partial buffer is immediately reusable and a single
/// buffer pipelines arbitrarily deep.
void ttm_blocked(const DistTensor& x, const tensor::Matrix& m_cols, int mode,
                 DistTensor& z) {
  const mps::CartGrid& grid = x.grid();
  const mps::Comm& col_comm = grid.mode_comm(mode);
  const int pn = grid.extent(mode);
  const int c = grid.coord(mode);

  tensor::Dims partial_dims = x.local().dims();
  tensor::Tensor partial;  // reused across rounds: the batched local TTM
                           // overwrites (beta = 0), so equal-sized blocks —
                           // the common divisible-grid case — skip the
                           // re-allocation and re-zeroing of J/P doubles
  mps::CollectiveHandle inflight;  // round l-1's reduce
  for (int l = 0; l < pn; ++l) {
    const util::Range out_block = z.mode_range_of(mode, l);
    const tensor::Matrix m_block = m_cols.row_block(out_block);
    partial_dims[static_cast<std::size_t>(mode)] = out_block.size();
    if (partial.dims() != partial_dims) partial = tensor::Tensor(partial_dims);
    tensor::local_ttm_into(x.local(), m_block, mode, partial);
    mps::CollectiveHandle h =
        mps::ireduce(col_comm, std::span<const double>(partial.span()),
                     c == l ? std::span<double>(z.local().span())
                            : std::span<double>(),
                     l);
    inflight.wait();
    inflight = std::move(h);
  }
  inflight.wait();
}

/// Append the packed per-destination chunks of \p partial for destination
/// coordinates [lo, hi) to \p packed and record their sizes in \p counts
/// (counts is full Pn-length; entries outside [lo, hi) stay zero).
void pack_destination_blocks(const tensor::Tensor& partial, const DistTensor& z,
                             int mode, int lo, int hi,
                             std::vector<double>& packed,
                             std::vector<std::size_t>& counts) {
  std::vector<util::Range> ranges(partial.dims().size());
  for (std::size_t n = 0; n < partial.dims().size(); ++n) {
    ranges[n] = util::Range{0, partial.dims()[n]};
  }
  const util::Range group{z.mode_range_of(mode, lo).lo,
                          z.mode_range_of(mode, hi - 1).hi};
  packed.clear();
  packed.resize(partial.size());
  std::size_t offset = 0;
  for (int l = lo; l < hi; ++l) {
    ranges[static_cast<std::size_t>(mode)] = util::Range{
        z.mode_range_of(mode, l).lo - group.lo,
        z.mode_range_of(mode, l).hi - group.lo};
    const tensor::Tensor block = partial.subtensor(ranges);
    counts[static_cast<std::size_t>(l)] = block.size();
    util::copy_bytes(packed.data() + offset, block.data(),
                     block.size() * sizeof(double));
    offset += block.size();
  }
  PT_CHECK(offset == packed.size(), "ttm: packing size mismatch");
}

/// Pick the chunk-group count for the pipelined reduce-scatter schedule from
/// the overlap-aware cost model: the local multiply and the ring transfer of
/// each group form a two-stage pipeline whose per-chunk overhead is one ring
/// round of latency (zero-length chunks still travel as empty messages).
int reduce_scatter_chunk_count(const DistTensor& x, std::size_t k,
                               std::size_t out_words, int pn) {
  const costmodel::Machine machine;
  const double compute_s = machine.gamma * 2.0 *
                           static_cast<double>(x.local().size()) *
                           static_cast<double>(k);
  const costmodel::CommVolume ring =
      costmodel::impl_reduce_scatter(pn, static_cast<double>(out_words));
  const double comm_s =
      machine.alpha * ring.messages + machine.beta * ring.words;
  const double overhead_s = machine.alpha * static_cast<double>(pn - 1);
  return costmodel::pipeline_chunks(compute_s, comm_s, overhead_s, pn).chunks;
}

/// Reduce-scatter schedule, chunk-pipelined: the destination blocks are
/// split into C groups of consecutive coordinates; group g's partial rows
/// are multiplied and packed while group g-1's ireduce_scatter is still in
/// flight. Each group's collective carries the full Pn-length counts vector
/// with zeros outside the group, so block l's ring path — and therefore its
/// floating-point reduction order — is exactly the monolithic schedule's,
/// making the chunked result bitwise identical (C = 1 degenerates to the
/// original single collective).
void ttm_reduce_scatter(const DistTensor& x, const tensor::Matrix& m_cols,
                        int mode, DistTensor& z) {
  const mps::CartGrid& grid = x.grid();
  const mps::Comm& col_comm = grid.mode_comm(mode);
  const int pn = grid.extent(mode);
  const int c = grid.coord(mode);

  const std::size_t out_words =
      x.local().size() /
      std::max<std::size_t>(
          1, x.local().dims()[static_cast<std::size_t>(mode)]) *
      m_cols.rows();
  const int chunks = std::min(
      pn,
      std::max(1, reduce_scatter_chunk_count(x, m_cols.rows(), out_words, pn)));

  tensor::Dims partial_dims = x.local().dims();
  tensor::Tensor partial;
  std::vector<double> packed;
  std::vector<std::size_t> counts(static_cast<std::size_t>(pn));
  mps::CollectiveHandle inflight;  // previous group's reduce-scatter
  for (int g = 0; g < chunks; ++g) {
    // Consecutive destination coordinates [lo, hi) form group g.
    const int lo = static_cast<int>(
        static_cast<long long>(g) * pn / chunks);
    const int hi = static_cast<int>(
        static_cast<long long>(g + 1) * pn / chunks);
    const util::Range rows{z.mode_range_of(mode, lo).lo,
                           z.mode_range_of(mode, hi - 1).hi};
    partial_dims[static_cast<std::size_t>(mode)] = rows.size();
    if (partial.dims() != partial_dims) partial = tensor::Tensor(partial_dims);
    tensor::local_ttm_into(x.local(), m_cols.row_block(rows), mode, partial);

    std::fill(counts.begin(), counts.end(), 0);
    pack_destination_blocks(partial, z, mode, lo, hi, packed, counts);
    const bool mine = c >= lo && c < hi;
    mps::CollectiveHandle h = mps::ireduce_scatter(
        col_comm, std::span<const double>(packed),
        mine ? std::span<double>(z.local().span()) : std::span<double>(),
        std::span<const std::size_t>(counts));
    inflight.wait();
    inflight = std::move(h);
  }
  inflight.wait();
}

}  // namespace

DistTensor ttm(const DistTensor& x, const tensor::Matrix& m, int mode,
               TtmAlgo algo) {
  PT_REQUIRE(mode >= 0 && mode < x.order(), "ttm: mode out of range");
  const std::size_t jn = x.global_dim(mode);
  PT_REQUIRE(m.cols() == jn, "ttm: matrix has "
                                 << m.cols() << " columns but mode " << mode
                                 << " has global extent " << jn);
  obs::Span span("TTM", mode);

  const std::size_t k = m.rows();
  tensor::Dims out_dims = x.global_dims();
  out_dims[static_cast<std::size_t>(mode)] = k;
  DistTensor z(x.grid_ptr(), out_dims);

  const int pn = x.grid().extent(mode);
  if (pn == 1) {
    // Paper Sec. V-B: no parallel communication at all when Pn = 1.
    tensor::local_ttm_into(x.local(), m, mode, z.local());
    return z;
  }

  const tensor::Matrix m_cols = my_column_block(m, x.mode_range(mode));
  if (algo == TtmAlgo::Auto) {
    // Price the two schedules as the overlapped pipelines they now are:
    // ReduceScatter hides the ring behind the chunked local multiply,
    // Blocked hides each binomial reduce behind the next round's multiply
    // (a fixed Pn-chunk pipeline). The paper's K*Pn <= Jn switch falls out
    // of the word terms when latency is negligible; the model additionally
    // accounts for what overlap can hide.
    const costmodel::Machine machine;
    const std::size_t j_loc = std::max<std::size_t>(
        1, x.local().dims()[static_cast<std::size_t>(mode)]);
    const double out_words =
        static_cast<double>(x.local().size() / j_loc) * static_cast<double>(k);
    const double compute_s = machine.gamma * 2.0 *
                             static_cast<double>(x.local().size()) *
                             static_cast<double>(k);
    const costmodel::CommVolume rs_ring =
        costmodel::impl_reduce_scatter(pn, out_words);
    const double rs_comm_s =
        machine.alpha * rs_ring.messages + machine.beta * rs_ring.words;
    const double rs_s =
        costmodel::pipeline_chunks(compute_s, rs_comm_s,
                                   machine.alpha * (pn - 1), pn)
            .seconds;
    const costmodel::CommVolume round =
        costmodel::paper_reduce(pn, out_words / pn);
    const double bl_comm_s =
        pn * (machine.alpha * round.messages + machine.beta * round.words);
    const double bl_s =
        costmodel::pipeline_makespan(compute_s, bl_comm_s, 0.0, pn);
    algo = rs_s <= bl_s ? TtmAlgo::ReduceScatter : TtmAlgo::Blocked;
  }
  if (algo == TtmAlgo::ReduceScatter) {
    ttm_reduce_scatter(x, m_cols, mode, z);
  } else {
    ttm_blocked(x, m_cols, mode, z);
  }
  return z;
}

DistTensor ttm_chain(const DistTensor& x,
                     const std::vector<const tensor::Matrix*>& ms,
                     const std::vector<int>& order, TtmAlgo algo) {
  PT_REQUIRE(ms.size() == static_cast<std::size_t>(x.order()),
             "ttm_chain: need one matrix slot per mode");
  DistTensor result;
  bool first = true;
  for (int n : order) {
    PT_REQUIRE(n >= 0 && n < x.order(), "ttm_chain: mode out of range");
    const tensor::Matrix* m = ms[static_cast<std::size_t>(n)];
    PT_REQUIRE(m != nullptr, "ttm_chain: no matrix for mode " << n);
    result = ttm(first ? x : result, *m, n, algo);
    first = false;
  }
  if (first) return x.clone();
  return result;
}

}  // namespace ptucker::dist
