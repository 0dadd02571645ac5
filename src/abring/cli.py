"""Command-line front end: sweeps, verification, and rigidity reports.

Outputs are deterministic for a fixed config and seed: CSV files carry
each value as ``'%.17g' % v`` with LF line endings, formatted in bulk and
byte for byte as per-value ``%`` would (``_text``; zeros, nan, infinities
and ``|v|`` below ``1e-4`` or from ``1e16`` on take the per-value ``%``),
and the SVG plots are rendered by the in-package writer.  Exit codes:
0 success, 2 config error (an unreadable or malformed config file, or an
output directory that cannot be written), 3 validity violation
(including a sweep that does not fit in memory), 4 verification failure,
5 verification unresolved (no suite failed, but at least one could not
decide at this config).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Sequence

from numpy.typing import ArrayLike

from . import _text
from .config import DEFAULT_OUT_DIR, DEFAULT_SEED, RunConfig, load_config
from .errors import ConfigError, OffResonanceWarning, ValidityError
from .ring import amplitude_t0
from .smatrix import factorized_family, generic_family, rigidity_report
from .svgplot import write_line_plot
from .transport import double_slit_visibility, dot_arm_rms, sweep_lambda, sweep_phase
from .verify import run_all

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDITY = 3
EXIT_VERIFY = 4
EXIT_UNRESOLVED = 5


def _write_csv(path: str, header: Sequence[str], columns: Sequence[ArrayLike]) -> None:
    """Write equal-length columns as rows of ``%.17g`` values.

    The values are formatted in bulk, byte for byte as per-value ``%``
    would (see ``_text``), and streamed in chunks of rows: the file is
    never held as one string.
    """
    seps = b"," * (len(columns) - 1) + b"\n"
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        fh.writelines(_text.rows(columns, "%.17g", seps))


def _warn_out_of_range(lam: float, bad: int) -> None:
    if bad:
        msg = f"warning: {bad} transmission values outside [0, 1] for lambda={lam:g}"
        print(msg, file=sys.stderr)


def cmd_sweep_phase(cfg: RunConfig) -> int:
    """Transmission over one flux period, one column per detector overlap."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    sweep = sweep_phase(cfg.ring, cfg.lambda_list, cfg.n_phi)
    for lam, bad in zip(sweep.lambdas, sweep.out_of_range()):
        _warn_out_of_range(lam, bad)
    csv_path = os.path.join(cfg.out_dir, "phase_sweep.csv")
    header = ["phi"] + ["T_lambda=%.17g" % lam for lam in cfg.lambda_list]
    _write_csv(csv_path, header, [sweep.phis, *sweep.values])
    svg_path = os.path.join(cfg.out_dir, "phase_sweep.svg")
    write_line_plot(
        svg_path,
        sweep.phis,
        sweep.values,
        [f"lambda = {lam:g}" for lam in cfg.lambda_list],
        title="Transmission vs flux phase",
        xlabel="phi (rad)",
        ylabel="T",
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_sweep_lambda(cfg: RunConfig) -> int:
    """Closed-loop visibility against the detector overlap, with the
    fixed-two-path reference alongside."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    arm_a = float(abs(amplitude_t0(cfg.ring, 0.0)))
    arm_b = dot_arm_rms(cfg.ring)
    lams, closed, slit = [], [], []
    for lam, vis, bad in sweep_lambda(cfg.ring, cfg.lambda_list, cfg.n_phi):
        _warn_out_of_range(lam, bad)
        lams.append(lam)
        closed.append(vis)
        slit.append(double_slit_visibility(arm_a, arm_b, lam))
    csv_path = os.path.join(cfg.out_dir, "visibility.csv")
    _write_csv(
        csv_path,
        ["lambda", "visibility_closed_loop", "visibility_double_slit"],
        [lams, closed, slit],
    )
    svg_path = os.path.join(cfg.out_dir, "visibility.svg")
    write_line_plot(
        svg_path,
        lams,
        [closed, slit],
        ["closed loop", "double slit"],
        title="Visibility vs detector overlap",
        xlabel="lambda",
        ylabel="visibility",
    )
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig) -> int:
    """Run the cross-validation suites; exit 0 only if all pass."""
    results = run_all(cfg.ring, cfg.seed)
    for result in results:
        status = "PASS" if result.passed else "FAIL" if result.resolved else "UNRESOLVED"
        print(f"[{status}] {result.name}: {result.detail}")
    n_pass = sum(r.passed for r in results)
    n_unresolved = sum(not r.resolved for r in results)
    unresolved = f", {n_unresolved} unresolved" if n_unresolved else ""
    print(f"verification: {n_pass}/{len(results)} suites passed{unresolved}")
    if n_pass + n_unresolved < len(results):
        return EXIT_VERIFY
    return EXIT_UNRESOLVED if n_unresolved else EXIT_OK


def cmd_rigidity(cfg: RunConfig) -> int:
    """Tabulate the rigidity identity for a factorized and a generic family."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    cases = [
        ("rigidity_factorized.csv", factorized_family(cfg.seed + 1, cfg.seed + 2)),
        ("rigidity_generic.csv", generic_family(cfg.seed)),
    ]
    header = ["phi", "T_pos", "T_neg", "s12sq_minus_s21sq", "identity_residual"]
    for filename, family in cases:
        report = rigidity_report(family)
        path = os.path.join(cfg.out_dir, filename)
        _write_csv(
            path,
            header,
            [
                report.phis,
                report.t_pos,
                report.t_neg,
                report.s12sq_minus_s21sq,
                report.identity_residual,
            ],
        )
        print(
            f"wrote {path}: max asymmetry = {report.max_asymmetry:.6e}, "
            f"max identity residual = {report.max_identity_residual:.3e}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abring",
        description=(
            "Transmission, dephasing visibility, and phase-rigidity reports for a "
            "closed-loop Aharonov-Bohm interferometer with a charge detector."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("sweep-phase", cmd_sweep_phase, "transmission vs flux phase for each overlap"),
        ("sweep-lambda", cmd_sweep_lambda, "visibility vs detector overlap"),
        ("verify", cmd_verify, "run the cross-validation suites"),
        ("rigidity", cmd_rigidity, "rigidity identity tables for seeded S-matrix families"),
    ]
    for name, func, help_text in commands:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", default=None, help="config file path")
        if func is not cmd_verify:  # verify writes no files
            sp.add_argument("--out", metavar="DIR", help="output directory (default: %(default)s)")
        if func in (cmd_verify, cmd_rigidity):  # the sweeps draw no seed
            sp.add_argument("--seed", metavar="INT", type=int, help="seed (default: %(default)s)")
        sp.set_defaults(func=func, out=DEFAULT_OUT_DIR, seed=DEFAULT_SEED)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", OffResonanceWarning)
            cfg = load_config(args.config, args.out, args.seed)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValidityError as exc:
        print(f"validity error: {exc}", file=sys.stderr)
        return EXIT_VALIDITY
    except MemoryError as exc:  # numpy's message names the allocation that failed
        detail = str(exc) or "allocation failed"
        print(f"validity error: run does not fit in memory: {detail}", file=sys.stderr)
        return EXIT_VALIDITY
    except OSError as exc:  # load_config reports an unreadable config as ConfigError
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
