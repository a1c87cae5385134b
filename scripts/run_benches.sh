#!/usr/bin/env bash
# Regenerate EXPERIMENTS.md from the figure/table benches.
#
# Usage: scripts/run_benches.sh [build_dir] [> EXPERIMENTS.md]
# Sizes are scaled for a laptop; pass larger --dim/--ranks by editing below.
set -euo pipefail

BUILD=${1:-build}

run() {
  echo '```'
  echo "\$ $*"
  "$@"
  echo '```'
  echo
}

echo "# EXPERIMENTS — bench output snapshots"
echo
echo "Generated by scripts/run_benches.sh; each block is one paper artifact"
echo "(see README.md for the mapping). Machine-dependent timings vary;"
echo "the shapes of the curves and the paper notes are the point."
echo

run "$BUILD/fig6_modewise_error" --scale 0.02 --ranks 2
run "$BUILD/fig8a_grid_sweep" --dim 12 --reduced 3 --ranks 4 --max_grids 4
run "$BUILD/fig9b_weak_scaling" --base_dim 16 --max_ranks 2
run "$BUILD/ablate_ttm_paths" --dim 32 --ranks 8
run "$BUILD/ablate_gram_overlap" --dim 32 --ranks 4
run "$BUILD/ablate_gram_symmetry" --dim 48 --ranks 8
run "$BUILD/ablate_factor_routes" --dim 64 --skinny 8 --ranks 8
run "$BUILD/ablate_eig_solvers" --dim 128
run "$BUILD/ablate_io_paths" --dim 48 --ranks 4
run "$BUILD/ablate_archive" --windows 6 --window 2 --ranks 2 --reps 3
run "$BUILD/grid_tuning" --ranks 4 --dim 16 --rank 4
run "$BUILD/serve_qps" --dim 24 --species 6 --windows 4 --queries 200 \
  --max_clients 4
run "$BUILD/serve_qps" --dim 24 --species 6 --windows 4 --queries 200 \
  --max_clients 4 --queue_depth 1 --shed --deadline_ms 1000
