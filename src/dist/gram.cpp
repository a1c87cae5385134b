#include "dist/gram.hpp"

#include "mps/collectives.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

namespace ptucker::dist {

namespace {

constexpr int kTagGramRing = 310;

/// Copy \p block (rows x my_cols) into rows [row_lo, row_lo + rows) of the
/// assembled block column \p cols (jn x my_cols).
void fill_rows(tensor::Matrix& cols, std::size_t row_lo,
               const tensor::Matrix& block) {
  for (std::size_t j = 0; j < block.cols(); ++j) {
    util::copy_bytes(cols.col(j) + row_lo, block.col(j),
                     block.rows() * sizeof(double));
  }
}

/// Local dims of the block owned by mode-coordinate \p coord (all other
/// modes as in my own block — ranks of a mode comm share those).
tensor::Dims block_dims_at(const DistTensor& x, int mode, int coord) {
  tensor::Dims dims = x.local().dims();
  dims[static_cast<std::size_t>(mode)] = x.mode_range_of(mode, coord).size();
  return dims;
}

}  // namespace

GramColumns gram(const DistTensor& x, int mode, GramAlgo algo) {
  PT_REQUIRE(mode >= 0 && mode < x.order(), "gram: mode out of range");
  obs::Span span("Gram", mode);

  const std::size_t jn = x.global_dim(mode);
  const util::Range my_range = x.mode_range(mode);
  const mps::CartGrid& grid = x.grid();
  const int pn = grid.extent(mode);
  const int c = grid.coord(mode);

  if (algo == GramAlgo::Auto) {
    // See auto_gram_prefers_symmetric (shared with the cost model). The old
    // Auto picked FullStorage on short rings because the NB-blocked
    // syrk_lower was slower in wall-clock despite the flop saving; the
    // packed kernel made ExploitSymmetry the faster route
    // (bench/ablate_gram_symmetry).
    algo = auto_gram_prefers_symmetric(pn) ? GramAlgo::ExploitSymmetry
                                           : GramAlgo::OverlappedRing;
  }

  tensor::Matrix cols(jn, my_range.size());

  // Diagonal block: my rows x my columns of S, from my own local block.
  const tensor::Matrix own =
      algo == GramAlgo::ExploitSymmetry
          ? tensor::local_gram_sym(x.local(), mode)
          : tensor::local_gram(x.local(), mode);
  fill_rows(cols, my_range.lo, own);

  if (pn > 1) {
    const mps::Comm& ring = grid.mode_comm(mode);
    if (algo == GramAlgo::OverlappedRing) {
      // Windowed overlap via handles: keep at most kSendWindow eager sends
      // ahead of the receives (bounding the in-flight copies of the local
      // block to O(window) per mailbox), and keep the *receive* for block
      // k+1 posted while the cross-Gram of block k runs, double-buffering
      // the incoming tensors. Peer k of my schedule is (c + k) mod Pn; that
      // peer receives from me at step k of its own receive schedule, so all
      // ranks advance in lockstep and no receive can starve. Transfers of
      // slab k+1 thus land during slab k's compute instead of serializing
      // in front of it.
      constexpr int kSendWindow = 2;
      const auto send_to_peer = [&](int k) {
        mps::isend(ring, std::span<const double>(x.local().span()),
                   (c + k) % pn, kTagGramRing)
            .wait();  // eager transport: already complete at initiation
      };
      for (int k = 1; k <= std::min(pn - 1, kSendWindow); ++k) {
        send_to_peer(k);
      }
      tensor::Tensor incoming[2];
      mps::CollectiveHandle arrival[2];
      const auto post_recv = [&](int k) {
        const int src = (c - k + pn) % pn;
        tensor::Tensor& buf = incoming[k & 1];
        buf = tensor::Tensor(block_dims_at(x, mode, src));
        arrival[k & 1] =
            mps::irecv(ring, std::span<double>(buf.span()), src, kTagGramRing);
      };
      post_recv(1);
      for (int k = 1; k < pn; ++k) {
        if (k + kSendWindow < pn) send_to_peer(k + kSendWindow);
        // Next slab's transfer is in flight before this slab's compute.
        if (k + 1 < pn) post_recv(k + 1);
        arrival[k & 1].wait();
        const int src = (c - k + pn) % pn;
        const tensor::Matrix cross =
            tensor::local_cross_gram(incoming[k & 1], x.local(), mode);
        fill_rows(cols, x.mode_range_of(mode, src).lo, cross);
      }
    } else {
      // Stepwise ring (Alg. 4): after step s the traveling block is the one
      // owned by coordinate (c - s) mod Pn.
      const int right = (c + 1) % pn;
      const int left = (c - 1 + pn) % pn;
      tensor::Tensor travel;  // step 1 sends my block directly, no copy
      const tensor::Tensor* outgoing = &x.local();
      for (int step = 1; step < pn; ++step) {
        const int src = (c - step + pn) % pn;
        ring.send(std::span<const double>(outgoing->span()), right,
                  kTagGramRing);
        tensor::Tensor incoming(block_dims_at(x, mode, src));
        ring.recv(incoming.span(), left, kTagGramRing);
        travel = std::move(incoming);
        outgoing = &travel;
        const tensor::Matrix cross =
            tensor::local_cross_gram(travel, x.local(), mode);
        fill_rows(cols, x.mode_range_of(mode, src).lo, cross);
      }
    }
  }

  // Sum the partial block column over the processor row (the ranks holding
  // the other unfolding-column blocks).
  mps::allreduce(grid.slice_comm(mode), cols.span());

  return GramColumns{std::move(cols), my_range};
}

}  // namespace ptucker::dist
