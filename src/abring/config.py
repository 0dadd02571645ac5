"""Run configuration: flat ``section.key = value`` text files.

A config file holds only the physics and the sweep; the output directory
and the seed come from the ``--out`` and ``--seed`` flags, with the
defaults ``DEFAULT_OUT_DIR`` and ``DEFAULT_SEED``.  Parsing is strict:
unknown or duplicate keys are rejected so a typo can never silently fall
back to a default.  Unset keys take the defaults below, which reproduce
the reference parameter point (x = 0.4, |V| = 0.75, eps_d = 1.25 in units
of the direct hop, |W| = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ValidityError
from .ring import RingParams

__all__ = [
    "RunConfig", "parse_config", "load_config", "DEFAULTS", "DEFAULT_OUT_DIR", "DEFAULT_SEED"
]

DEFAULTS: dict[str, str] = {
    "ring.v_mag": "0.75",
    "ring.eps_d": "1.25",
    "ring.x": "0.4",
    "sweep.n_phi": "720",
    "sweep.lambda_list": "0, 0.25, 0.5, 0.75, 1",
}

DEFAULT_OUT_DIR = "out"
DEFAULT_SEED = 12345


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters.

    The ring checks itself when it is built; the other fields are checked
    here.
    """

    ring: RingParams
    n_phi: int
    lambda_list: tuple[float, ...]
    out_dir: str
    seed: int

    def __post_init__(self) -> None:
        if self.n_phi < 4:
            raise ValidityError(f"sweep.n_phi must be at least 4, got {self.n_phi}")
        for lam in self.lambda_list:
            if not 0.0 <= lam <= 1.0:
                raise ValidityError(f"sweep.lambda_list entries must lie in [0, 1], got {lam}")
        if self.seed < 0:
            raise ValidityError(f"seed must be nonnegative, got {self.seed}")


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        pairs[key] = value
    return pairs


def _get_float(pairs: dict[str, str], key: str) -> float:
    try:
        return float(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {pairs[key]!r}") from exc


def _get_int(pairs: dict[str, str], key: str) -> int:
    try:
        return int(pairs[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {pairs[key]!r}") from exc


def parse_config(text: str, out_dir: str = DEFAULT_OUT_DIR, seed: int = DEFAULT_SEED) -> RunConfig:
    """Parse configuration text into validated run parameters.

    Raises ConfigError for syntax and type problems and ValidityError when
    a well-formed value violates a model invariant.
    """
    pairs = {**DEFAULTS, **_parse_pairs(text)}
    v_mag = _get_float(pairs, "ring.v_mag")
    eps_d = _get_float(pairs, "ring.eps_d")
    ring = RingParams.from_x(_get_float(pairs, "ring.x"), v_mag, eps_d)
    try:
        lambda_list = tuple(float(s) for s in pairs["sweep.lambda_list"].split(","))
    except ValueError as exc:
        raise ConfigError(
            f"sweep.lambda_list: not a comma-separated number list: {pairs['sweep.lambda_list']!r}"
        ) from exc
    return RunConfig(
        ring=ring,
        n_phi=_get_int(pairs, "sweep.n_phi"),
        lambda_list=lambda_list,
        out_dir=out_dir,
        seed=seed,
    )


def load_config(
    path: str | None, out_dir: str = DEFAULT_OUT_DIR, seed: int = DEFAULT_SEED
) -> RunConfig:
    """Load a config file (or pure defaults) with the output directory and seed."""
    if path is None:
        return parse_config("", out_dir, seed)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text, out_dir, seed)
