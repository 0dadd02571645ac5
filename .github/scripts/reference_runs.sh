#!/bin/sh
# Run every reference command of the CLI, and api_reference.py, on one tree.
#
# Usage: .github/scripts/reference_runs.sh SRC OUT
#
# Each command runs `python -m abring` with SRC on PYTHONPATH and writes its
# files under OUT, with the stdout or stderr that does not name an output
# path; rigidity runs inside OUT with a relative --out, so the paths its
# stdout names are the same on every tree, and that stdout is kept too.  OUT directories made from two trees must match byte for byte
# (`diff -r`), unless a change moves a number on purpose and says why in
# CHANGES.md.  With PYTHONWARNINGS=error any Python warning, a numpy
# RuntimeWarning say, fails the run before it reaches a user.
#
# The default config, two configs that reach the warning lines, a second
# ring, sweep-phase and sweep-lambda at benchmark scale, the --help text of
# abring and of each subcommand, and runs that end in an error exit (a
# negative seed, a bad config, a ring the model refuses, an output directory
# that cannot be made), whose stdout, stderr and exit code are kept.  No
# command writes oracle or thermal numbers, so api_reference.py, always the
# copy beside this script, saves them from SRC.
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
# Benchmark scale (overlap-scan): 65,536 phases x overlaps 0, 0.01, ..., 1,
# where sweep-lambda samples each row coarsely and evaluates the cells that
# can decide it; then the rho ring at 65,537 phases, one warning line per
# overlap.
scan=$(python -c 'print(", ".join(str(i / 100) for i in range(101)))')
printf 'sweep.n_phi = 65536\nsweep.lambda_list = %s\n' "$scan" > "$cfgs/scan.cfg"
printf 'ring.x = 0.6283185307179586\nsweep.n_phi = 65537\nsweep.lambda_list = %s\n' "$scan" \
    > "$cfgs/rho-scan.cfg"
# Error exits: a key no command reads, and sweep values out of range.
printf 'ring.bogus = 1\n' > "$cfgs/unknown.cfg"
printf 'sweep.n_phi = 3\n' > "$cfgs/coarse.cfg"
printf 'sweep.lambda_list = 0, 1.5\n' > "$cfgs/overlap.cfg"
# Rings the model refuses, one field each: out of range, not finite, off the
# float range, and too close to resonance.
printf 'ring.eps_d = 0\n' > "$cfgs/ring-eps_d-zero.cfg"
printf 'ring.v_mag = -1\n' > "$cfgs/ring-v_mag-negative.cfg"
printf 'ring.x = nan\n' > "$cfgs/ring-x-nan.cfg"
printf 'ring.x = 1e-200\n' > "$cfgs/ring-x-tiny.cfg"
printf 'ring.v_mag = 4\n' > "$cfgs/ring-v_mag-resonant.cfg"
printf 'ring.eps_d = 1e-310\n' > "$cfgs/ring-eps_d-subnormal.cfg"

mkdir -p "$out"
# The CLI surface.  COLUMNS fixes argparse's wrap width on any terminal.
COLUMNS=80 abring --help > "$out/help.txt"
for cmd in sweep-phase sweep-lambda verify rigidity; do
    COLUMNS=80 abring "$cmd" --help > "$out/help-$cmd.txt"
done
for cmd in sweep-phase sweep-lambda; do
    abring "$cmd" --out "$out/$cmd" > /dev/null
done
# rigidity prints each file's max asymmetry and max identity residual.
(cd "$out" && abring rigidity --out rigidity > rigidity.txt)
abring verify > "$out/verify.txt"
# More seeds put more of the stacked suites' worst gaps under the byte diff.
for seed in 0 1 7; do
    abring verify --seed "$seed" > "$out/verify-seed$seed.txt"
done
# Near the top of the benchmark's seed range (family seeds pass 2^31).
abring verify --seed 2147483000 > "$out/verify-seed2147483000.txt"
for seed in 1 7; do
    (cd "$out" && abring rigidity --seed "$seed" --out "rigidity-seed$seed" > "rigidity-seed$seed.txt")
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
for cfg in scan rho-scan; do
    abring sweep-lambda --config "$cfgs/$cfg.cfg" --out "$out/$cfg-sweep-lambda" > /dev/null 2> "$out/$cfg-sweep-lambda.err"
done
PYTHONPATH="$src" python "$here/api_reference.py" "$out/api"

# Error exits: which check wins, its message and its exit code.
fails() {
    name=$1
    shift
    code=0
    abring "$@" > "$out/$name.out" 2> "$out/$name.err" || code=$?
    echo "$code" > "$out/$name.code"
}
fails error-verify-seed verify --seed -1
fails error-rigidity-seed rigidity --seed -1 --out "$out/error-rigidity-seed"
fails error-warm-seed verify --config "$cfgs/warm.cfg" --seed -1
fails error-unknown-seed verify --config "$cfgs/unknown.cfg" --seed -1
fails error-n_phi sweep-phase --config "$cfgs/coarse.cfg" --out "$out/error-n_phi"
fails error-lambda sweep-lambda --config "$cfgs/overlap.cfg" --out "$out/error-lambda"
for ring in eps_d-zero v_mag-negative x-nan x-tiny v_mag-resonant eps_d-subnormal; do
    fails "error-ring-$ring" sweep-phase --config "$cfgs/ring-$ring.cfg" --out "$out/error-ring-$ring"
done
# An output directory that cannot be made: the same path, and message, on any tree.
for cmd in sweep-phase sweep-lambda rigidity; do
    fails "error-out-$cmd" "$cmd" --out /dev/null/out
done
