"""Run configuration: flat ``section.key = value`` text files.

A config file holds only the physics and the sweep.  The output directory
and the seed are not config keys: ``cli`` owns them, as the ``--out`` and
``--seed`` flags of the commands that read them.  Parsing is strict:
unknown or duplicate keys are rejected so a typo can never silently fall
back to a default.  Unset keys take ``DEFAULTS``, the one home of the
reference parameter point (x = 0.4, |V| = 0.75, eps_d = 1.25 in units of
the direct hop, |W| = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, ValidityError
from .ring import RingParams

__all__ = ["RunConfig", "parse_config", "load_config", "DEFAULTS"]

DEFAULTS: dict[str, str] = {
    "ring.v_mag": "0.75",
    "ring.eps_d": "1.25",
    "ring.x": "0.4",
    "sweep.n_phi": "720",
    "sweep.lambda_list": "0, 0.25, 0.5, 0.75, 1",
}


@dataclass(frozen=True)
class RunConfig:
    """The ring and the sweep of a run; the ring checks itself, the sweep is checked here."""

    ring: RingParams
    n_phi: int
    lambda_list: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.n_phi < 4:
            raise ValidityError(f"sweep.n_phi must be at least 4, got {self.n_phi}")
        for lam in self.lambda_list:
            if not 0.0 <= lam <= 1.0:
                raise ValidityError(f"sweep.lambda_list entries must lie in [0, 1], got {lam}")


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


def _get(pairs: dict[str, str], key: str, kind: type = float):
    """The value of ``key`` as a ``kind``: a float, or an int."""
    try:
        return kind(pairs[key])
    except ValueError as exc:
        what = "a number" if kind is float else "an integer"
        raise ConfigError(f"{key}: not {what}: {pairs[key]!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into validated run parameters.

    Raises ConfigError for syntax and type problems and ValidityError when
    a well-formed value violates a model invariant.
    """
    pairs = {**DEFAULTS, **_parse_pairs(text)}
    v_mag = _get(pairs, "ring.v_mag")
    eps_d = _get(pairs, "ring.eps_d")
    ring = RingParams.from_x(_get(pairs, "ring.x"), v_mag, eps_d)
    try:
        lambda_list = tuple(float(s) for s in pairs["sweep.lambda_list"].split(","))
    except ValueError as exc:
        raise ConfigError(
            f"sweep.lambda_list: not a comma-separated number list: {pairs['sweep.lambda_list']!r}"
        ) from exc
    return RunConfig(ring=ring, n_phi=_get(pairs, "sweep.n_phi", int), lambda_list=lambda_list)


def load_config(path: str | None) -> RunConfig:
    """Load a config file, or the pure defaults when ``path`` is None."""
    if path is None:
        return parse_config("")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)
