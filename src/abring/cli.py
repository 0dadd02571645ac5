"""Command-line front end: sweeps, verification, and rigidity reports.

Each command takes only the run settings (``--config``, ``--out``,
``--seed``) that it reads, as ``_commands`` lists.  Outputs are
deterministic for a fixed config and seed: CSV files carry each value as
``'%.17g' % v`` with LF line endings, formatted in bulk and byte for byte
as per-value ``%`` would (``_text``; zeros, nan, infinities and ``|v|``
below ``1e-4`` or from ``1e16`` on take the per-value ``%``), and the SVG
plots are rendered by the in-package writer.  Exit codes: 0 success,
2 config error (an unreadable or malformed config file, or an output
directory that cannot be written), 3 validity violation (including a
negative seed or a sweep that does not fit in memory), 4 verification
failure, 5 verification unresolved (no suite failed, but at least one
could not decide at this config).
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Sequence

from numpy.typing import ArrayLike

from . import _text
from .config import RunConfig, load_config
from .errors import ConfigError, OffResonanceWarning, ValidityError
from .ring import amplitude_t0
from .svgplot import write_line_plot
from .transport import (
    double_slit_visibility, dot_arm_rms, out_of_range, phase_grid, sweep_lambda, sweep_phase
)

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


def _write_figure(
    out_dir: str, name: str, header: Sequence[str], x: ArrayLike, series: Sequence[ArrayLike],
    labels: Sequence[str], title: str, xlabel: str, ylabel: str,
) -> None:
    """Write ``name.csv`` (x, then each series) and ``name.svg``; print both paths, CSV first."""
    csv_path = os.path.join(out_dir, f"{name}.csv")
    _write_csv(csv_path, header, [x, *series])
    svg_path = os.path.join(out_dir, f"{name}.svg")
    write_line_plot(svg_path, x, series, labels, title=title, xlabel=xlabel, ylabel=ylabel)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")


def _warn_out_of_range(lam: float, bad: int) -> None:
    if bad:
        msg = f"warning: {bad} transmission values outside [0, 1] for lambda={lam:g}"
        print(msg, file=sys.stderr)


def cmd_sweep_phase(cfg: RunConfig, out_dir: str) -> int:
    """Transmission over one flux period, one column per detector overlap."""
    os.makedirs(out_dir, exist_ok=True)
    values = sweep_phase(cfg.ring, cfg.lambda_list, cfg.n_phi)
    for lam, bad in zip(cfg.lambda_list, out_of_range(values)):
        _warn_out_of_range(lam, bad)
    header = ["phi"] + ["T_lambda=%.17g" % lam for lam in cfg.lambda_list]
    labels = [f"lambda = {lam:g}" for lam in cfg.lambda_list]
    _write_figure(
        out_dir, "phase_sweep", header, phase_grid(cfg.n_phi), values, labels,
        title="Transmission vs flux phase", xlabel="phi (rad)", ylabel="T",
    )
    return EXIT_OK


def cmd_sweep_lambda(cfg: RunConfig, out_dir: str) -> int:
    """Closed-loop visibility against the detector overlap, with the
    fixed-two-path reference alongside."""
    os.makedirs(out_dir, exist_ok=True)
    arm_a = float(abs(amplitude_t0(cfg.ring, 0.0)))
    arm_b = dot_arm_rms(cfg.ring)
    lams, closed, slit = cfg.lambda_list, [], []
    for lam, (vis, bad) in zip(lams, sweep_lambda(cfg.ring, lams, cfg.n_phi)):
        _warn_out_of_range(lam, bad)
        closed.append(vis)
        slit.append(double_slit_visibility(arm_a, arm_b, lam))
    header = ["lambda", "visibility_closed_loop", "visibility_double_slit"]
    _write_figure(
        out_dir, "visibility", header, lams, [closed, slit], ["closed loop", "double slit"],
        title="Visibility vs detector overlap", xlabel="lambda", ylabel="visibility",
    )
    return EXIT_OK


def cmd_verify(cfg: RunConfig, seed: int) -> int:
    """Run the cross-validation suites; exit 0 only if all pass."""
    from .verify import run_all

    results = run_all(cfg.ring, seed)
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


def cmd_rigidity(out_dir: str, seed: int) -> int:
    """Tabulate the rigidity identity for a factorized and a generic family."""
    from .smatrix import factorized_family, generic_family, rigidity_report

    os.makedirs(out_dir, exist_ok=True)
    cases = [
        ("rigidity_factorized.csv", factorized_family(seed + 1, seed + 2)),
        ("rigidity_generic.csv", generic_family(seed)),
    ]
    header = ["phi", "T_pos", "T_neg", "s12sq_minus_s21sq", "identity_residual"]
    for filename, family in cases:
        report = rigidity_report(family)
        path = os.path.join(out_dir, filename)
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


_FLAGS = {
    "config": dict(metavar="PATH", help="config file path"),
    "out": dict(metavar="DIR", default="out", help="output directory (default: %(default)s)"),
    "seed": dict(metavar="INT", type=int, default=12345, help="seed (default: %(default)s)"),
}


def _commands() -> dict:
    """Each command's function, the settings it takes, in order, and its help line."""
    return {  # built per call, so that a command rebound on this module is the one run
        "sweep-phase": (
            cmd_sweep_phase, ("config", "out"), "transmission vs flux phase for each overlap"
        ),
        "sweep-lambda": (cmd_sweep_lambda, ("config", "out"), "visibility vs detector overlap"),
        "verify": (cmd_verify, ("config", "seed"), "run the cross-validation suites"),
        "rigidity": (
            cmd_rigidity, ("out", "seed"), "rigidity identity tables for seeded S-matrix families"
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abring",
        description=(
            "Transmission, dephasing visibility, and phase-rigidity reports for a "
            "closed-loop Aharonov-Bohm interferometer with a charge detector."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, settings, help_text) in _commands().items():
        sp = sub.add_parser(name, help=help_text)
        for setting in settings:
            sp.add_argument(f"--{setting}", **_FLAGS[setting])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    func, settings, _ = _commands()[args.command]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", OffResonanceWarning)
            if "config" in settings:
                args.config = load_config(args.config)
            if "seed" in settings and args.seed < 0:  # after the config, whose errors win
                raise ValidityError(f"seed must be nonnegative, got {args.seed}")
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        return func(*(getattr(args, name) for name in settings))
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
