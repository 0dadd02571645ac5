#!/bin/sh
# Run every reference command of the CLI, and api_reference.py, on one tree.
#
# Usage: .github/scripts/reference_runs.sh SRC OUT
#
# Each command runs `python -m abring` with SRC on PYTHONPATH and writes its
# files under OUT, with the stdout or stderr that does not name an output
# path.  OUT directories made from two trees must match byte for byte
# (`diff -r`), unless a change moves a number on purpose and says why in
# CHANGES.md.  With PYTHONWARNINGS=error any Python warning, a numpy
# RuntimeWarning say, fails the run before it reaches a user.
#
# The default config, two configs that reach the warning lines, a second
# ring, and sweep-phase at benchmark scale.  No command writes oracle or
# thermal numbers, so api_reference.py, always the copy beside this
# script, saves them from SRC.
set -eu
src=$(cd "$1" && pwd)
out=$2
here=$(cd "$(dirname "$0")" && pwd)
cfgs=$(mktemp -d)
trap 'rm -rf "$cfgs"' EXIT

abring() {
    PYTHONPATH="$src" python -m abring "$@"
}

# Out-of-range warnings for every overlap (x = pi * 0.2).
printf 'ring.x = 0.6283185307179586\nsweep.n_phi = 64\nsweep.lambda_list = 0, 0.1, 0.333, 0.9, 1\n' > "$cfgs/rho.cfg"
# The off-resonance guard warning line.
printf 'ring.v_mag = 1.2\nsweep.n_phi = 64\n' > "$cfgs/warm.cfg"
# Benchmark scale (phase-sweep-dense): 65,536 phases x the default five overlaps.
printf 'sweep.n_phi = 65536\n' > "$cfgs/dense.cfg"
# 65,537 phases put many SVG x coordinates exactly on decimal ties
# (72 + 39 k / 4096), where a one-ulp change in px moves a printed digit.
printf 'sweep.n_phi = 65537\n' > "$cfgs/ties.cfg"
# 1,366 phases leave one row for the last CSV chunk (1,365 rows of six
# columns per chunk); 65,537 already give the SVG a one-point last chunk.
printf 'sweep.n_phi = 1366\n' > "$cfgs/tail.cfg"
# A second ring, whose SVG y text differs from the default's, at the ties'
# 65,537 phases.
printf 'ring.x = 2\nring.v_mag = 0.5\nring.eps_d = -1.5\nsweep.n_phi = 65537\nsweep.lambda_list = 0, 0.3, 1\n' \
    > "$cfgs/ring2.cfg"

mkdir -p "$out"
for cmd in sweep-phase sweep-lambda rigidity; do
    abring "$cmd" --out "$out/$cmd" > /dev/null
done
abring verify > "$out/verify.txt"
# More seeds put more of the stacked suites' worst gaps under the byte diff.
for seed in 0 1 7; do
    abring verify --seed "$seed" > "$out/verify-seed$seed.txt"
done
# Near the top of the benchmark's seed range (family seeds pass 2^31).
abring verify --seed 2147483000 > "$out/verify-seed2147483000.txt"
for seed in 1 7; do
    abring rigidity --seed "$seed" --out "$out/rigidity-seed$seed" > /dev/null
done
for cfg in rho warm ring2; do
    # stdout names the output path, which differs between trees.
    for cmd in sweep-phase sweep-lambda; do
        abring "$cmd" --config "$cfgs/$cfg.cfg" --out "$out/$cfg-$cmd" > /dev/null 2> "$out/$cfg-$cmd.err"
    done
    abring verify --config "$cfgs/$cfg.cfg" > "$out/$cfg-verify.txt" 2> "$out/$cfg-verify.err"
done
for cfg in dense ties tail; do
    abring sweep-phase --config "$cfgs/$cfg.cfg" --out "$out/$cfg-sweep-phase" > /dev/null 2> "$out/$cfg-sweep-phase.err"
done
PYTHONPATH="$src" python "$here/api_reference.py" "$out/api"
