"""Seeded generation of decoding instances y = A f + e.

A is a tall Gaussian coding matrix, f the message, and e a sparse error
vector with |N(0,1)| magnitudes under one of the paper's two error models:
arbitrary sparse (a random support of floor(rho m) indices and random
signs), or a fixed support with fixed signs, given as a sign map, in which
case rho is not used.  Everything is drawn from a value-owned Philox
stream, so a (master_seed, stream_id) pair fully determines an instance;
the draw order inside :func:`make_instance` is frozen (matrix, message,
support, magnitudes, signs).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, _as_floats, _require_count, _require_finite, _require_in
from .errors import _require_indices, _require_int, _require_matrix, _require_rho, _require_shape
from .errors import _require_sign_map, _require_type

_MASK64 = (1 << 64) - 1
# Guard against 0.29*100 = 28.999999999999996-style float droop in k = floor(rho*m).
_FLOOR_GUARD = 1e-9


def floor_count(rho: float, m: int) -> int:
    """floor(rho * m) with a guard for inexact float products."""
    return int(math.floor(rho * m + _FLOOR_GUARD))


@dataclass(frozen=True)
class SeedSpec:
    """A (master_seed, stream_id) pair naming one Philox stream; composite
    experiments derive child stream ids with :func:`mix64`.  Both mappings
    are frozen, so artifacts are byte-stable across runs and machines."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        _require_int("master_seed", self.master_seed)
        _require_count("stream_id", self.stream_id, least=0)

    def generator(self) -> np.random.Generator:
        """The Philox stream this pair owns."""
        seq = np.random.SeedSequence(
            entropy=int(self.master_seed) & _MASK64, spawn_key=(int(self.stream_id),)
        )
        return np.random.Generator(np.random.Philox(seq))


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 output function (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def mix64(*values: int) -> int:
    """Mix any number of integers into one 63-bit stream id.

    Order-sensitive; negative inputs are folded through their two's
    complement image so Python ints of any sign are accepted.
    """
    h = 0
    for v in values:
        h = _splitmix64(h ^ (int(v) & _MASK64))
    return h & (_MASK64 >> 1)


def _require_seed(seed, default: SeedSpec | None = None) -> SeedSpec:
    """``seed``, or ``default`` for a None seed where there is one;
    DomainError unless that is a SeedSpec."""
    if seed is None and default is not None:
        return default
    return _require_type("seed", seed, SeedSpec)


@dataclass(frozen=True, eq=False)
class ErrorSpec:
    """Which of the two error models builds e; its magnitudes are |N(0,1)|.

    With ``fixed_signs`` None, e is arbitrary and sparse: a random support
    of floor(``rho`` m) indices with random signs.  Otherwise
    ``fixed_signs``, a map index -> +-1, fixes both the support (its keys)
    and the signs, and ``rho`` is not used.
    """

    rho: float
    fixed_signs: dict[int, int] | None = None

    def __post_init__(self):
        _require_rho(self.rho, below_one=True)
        if self.fixed_signs is not None:
            if not isinstance(self.fixed_signs, dict) or not self.fixed_signs:
                raise DomainError("fixed_signs must be a non-empty map")
            for i in self.fixed_signs:  # make_instance checks them against m
                _require_count("fixed_signs key", i, least=0)
            if any(s not in (-1, 1) for s in self.fixed_signs.values()):
                raise DomainError("fixed_signs values must be +1 or -1")


@dataclass(eq=False)
class Instance:
    """One decoding problem; y = a @ f + e holds exactly by construction."""

    a: np.ndarray
    f: np.ndarray
    e: np.ndarray
    y: np.ndarray
    support: np.ndarray
    signs: dict[int, int] = field(default_factory=dict)
    seed: SeedSpec | None = None

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def validate(self) -> None:
        """Raise if any construction invariant is broken."""
        a = _require_matrix(self.a)
        m, n = a.shape
        f = _require_finite("f", self.f, (n,))
        e = _require_finite("e", self.e, (m,))
        y = _require_finite("y", self.y, (m,))
        resid = y - a @ f - e
        scale = max(1.0, float(np.max(np.abs(y))))
        if np.max(np.abs(resid), initial=0.0) > 64 * np.finfo(float).eps * scale:
            raise DomainError("instance violates y = a f + e at working precision")
        _, sgn = _require_sign_map(self.support, self.signs, m)
        if np.any(e[sgn == 0] != 0):
            raise DomainError("error vector has mass off its declared support")
        if np.any(e * sgn < 0):
            raise DomainError(f"sign map disagrees with e at index {np.argmax(e * sgn < 0)}")


def gaussian_matrix(m: int, n: int, seed: SeedSpec) -> np.ndarray:
    """m x n matrix of i.i.d. N(0,1) entries from the seeded stream (m >= n)."""
    _require_shape(m, n)
    return _require_seed(seed).generator().standard_normal((m, n))


def draw_support_signs(m: int, rho: float, seed: SeedSpec) -> tuple[np.ndarray, dict[int, int]]:
    """A uniformly random support of floor(rho m) indices and a +-1 sign for each.

    The support comes back sorted.  The draw order is frozen (support by
    ``choice``, then the signs), so a seed always gives the same pair.
    """
    _require_count("m", m)
    _require_rho(rho)
    gen = _require_seed(seed).generator()
    k = floor_count(rho, m)
    support = np.sort(gen.choice(m, size=k, replace=False))
    signs = {int(i): int(s) for i, s in zip(support, 2 * gen.integers(0, 2, size=k) - 1)}
    return support, signs


def make_instance(m: int, n: int, spec: ErrorSpec, seed: SeedSpec) -> Instance:
    """Draw a full instance under ``spec`` from the stream owned by ``seed``.

    A and f are Gaussian.  Under arbitrary sparse errors the support has
    floor(rho m) random indices and random signs; under ``fixed_signs`` the
    support and signs are the map's and ``rho`` is not used.  The draws come
    in a frozen order: matrix, message, support (arbitrary errors only),
    magnitudes, signs (arbitrary errors only).
    """
    _require_shape(m, n)
    _require_type("spec", spec, ErrorSpec)
    gen = _require_seed(seed).generator()
    a = gen.standard_normal((m, n))
    f = gen.standard_normal(n)

    if spec.fixed_signs is not None:
        sign_at = _require_sign_map(list(spec.fixed_signs), spec.fixed_signs, m)[1]
        support = np.flatnonzero(sign_at)
        mags = np.abs(gen.standard_normal(support.size))
        sgn = sign_at[support]
    else:
        k = floor_count(spec.rho, m)
        support = np.sort(gen.choice(m, size=k, replace=False)).astype(np.int64)
        mags = np.abs(gen.standard_normal(k))
        sgn = 2.0 * gen.integers(0, 2, size=k) - 1.0
    e = np.zeros(m)
    e[support] = sgn * mags
    signs = {int(i): int(s) for i, s in zip(support, sgn)}
    y = a @ f + e
    return Instance(a=a, f=f, e=e, y=y, support=support, signs=signs, seed=seed)


def apply_decoder_success(x_hat: np.ndarray, f: np.ndarray, tol: float = 1e-4) -> bool:
    """Recovery flag: max_i |x_hat_i - f_i| <= tol.

    The 1e-4 default does not separate the IRLS convergence floor from
    genuine failures at p = 1.  IRLS stops at eps = 1e-8 ||y||^2 / m, about
    sqrt(1e-8) = 1e-4 of the measurement scale from the minimiser, so at
    p = 1 it ends 6e-5 to 3e-4 from f on trials that an exact l1 solver
    recovers, and some of those read as failures.
    """
    _require_in("tol", tol, lambda t: t >= 0, "[0, inf]")
    x_hat = _as_floats("x_hat", x_hat)
    f = _as_floats("f", f, x_hat.shape)
    return bool(np.max(np.abs(x_hat - f), initial=0.0) <= tol)


# -- Regression-fixture I/O: matrix CSV plus JSON sidecar --


def write_instance(inst: Instance, prefix: str | Path) -> tuple[Path, Path]:
    """Write ``<prefix>.csv`` (the matrix, 17 significant digits) and
    ``<prefix>.json`` (f, e, y, support, signs, seed)."""
    csv_path, json_path = Path(f"{prefix}.csv"), Path(f"{prefix}.json")

    rows = [",".join(f"{v:.17g}" for v in row) for row in inst.a]
    csv_path.write_text("\n".join(rows) + "\n")

    sidecar = {
        "m": inst.m,
        "n": inst.n,
        "f": [float(v) for v in inst.f],
        "e": [float(v) for v in inst.e],
        "y": [float(v) for v in inst.y],
        "support": [int(i) for i in inst.support],
        "signs": {str(i): s for i, s in sorted(inst.signs.items())},
        "seed": None
        if inst.seed is None
        else {"master_seed": inst.seed.master_seed, "stream_id": inst.seed.stream_id},
    }
    json_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    return csv_path, json_path


def read_instance(prefix: str | Path) -> Instance:
    """Read an instance written by :func:`write_instance` and validate it."""
    csv_path, json_path = Path(f"{prefix}.csv"), Path(f"{prefix}.json")
    try:
        rows = [
            [float(v) for v in line.split(",")]
            for line in csv_path.read_text().splitlines()
            if line
        ]
        a = np.array(rows, dtype=float)
        sidecar = json.loads(json_path.read_text())
        shape = (sidecar["m"], sidecar["n"])
        seed = sidecar.get("seed")
        if seed is not None:
            seed = SeedSpec(seed["master_seed"], seed["stream_id"])
        vectors = {key: np.array(sidecar[key], dtype=float) for key in ("f", "e", "y")}
        support = _require_indices("support", sidecar["support"], sidecar["m"])
        signs = {int(i): int(s) for i, s in sidecar["signs"].items()}
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DomainError(f"malformed fixture {prefix}: {type(exc).__name__}: {exc}") from exc
    if a.shape != shape:
        raise DomainError(f"matrix shape {a.shape} disagrees with sidecar {shape}")
    inst = Instance(
        a=a,
        **vectors,
        support=support,
        signs=signs,
        seed=seed,
    )
    inst.validate()
    return inst
