"""Run configuration: flat ``section.key = value`` text files.

Parsing is strict: unknown or duplicate keys are rejected so a typo can
never silently fall back to a default.  Unset keys take the defaults
below, which reproduce the reference parameter point (x = 0.4,
|V| = 0.75, eps_d = 1.25 in units of the direct hop, |W| = 1).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError, ValidityError
from .ring import RingParams

__all__ = ["RunConfig", "parse_config", "load_config", "DEFAULTS"]

DEFAULTS: dict[str, str] = {
    "ring.v_mag": "0.75",
    "ring.eps_d": "1.25",
    "ring.x": "0.4",
    "sweep.n_phi": "720",
    "sweep.lambda_list": "0, 0.25, 0.5, 0.75, 1",
    "output.dir": "out",
    "seed": "12345",
}

KNOWN_KEYS = frozenset(DEFAULTS) | {"ring.rho"}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters.

    The ring checks itself when it is built; the other fields are checked
    here, so ``dataclasses.replace`` re-checks every override.
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
        if key not in KNOWN_KEYS:
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


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into validated run parameters.

    Raises ConfigError for syntax and type problems and ValidityError when
    a well-formed value violates a model invariant.
    """
    user = _parse_pairs(text)
    if "ring.rho" in user and "ring.x" in user:
        raise ConfigError("set either ring.rho or ring.x, not both")

    pairs = dict(DEFAULTS)
    if "ring.rho" in user:
        del pairs["ring.x"]
    pairs.update(user)

    v_mag = _get_float(pairs, "ring.v_mag")
    eps_d = _get_float(pairs, "ring.eps_d")
    if "ring.rho" in pairs:
        ring = RingParams(v_mag=v_mag, eps_d=eps_d, rho=_get_float(pairs, "ring.rho"))
    else:
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
        out_dir=pairs["output.dir"],
        seed=_get_int(pairs, "seed"),
    )


def load_config(
    path: str | None,
    out_dir: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Load a config file (or pure defaults) with optional CLI overrides."""
    if path is None:
        cfg = parse_config("")
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        cfg = parse_config(text)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg
