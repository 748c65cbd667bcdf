"""Entry laws for random symmetric matrices.

Finitely supported laws are kept exact: atom values and masses are
fractions.Fraction whenever the inputs are rational (floats are accepted
and treated as the exact binary rationals they are).  The derived law
xi - xi' and the anti-concentration spacing check are computed by exact
convolution.

Continuous laws are represented as samplers plus a closed-form (or
quadrature) mass function for |xi - xi'|; their spacing check carries a
documented 1e-9 absolute tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .exactlinalg import lattice
from .streams import StreamBlock

Scalar = Union[Fraction, float]

MERGE_REL_TOL = 1e-12
MASS_TOL = 1e-12


def _as_scalar(x) -> Scalar:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    return float(x)


def _values_close(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    try:
        fa, fb = float(a), float(b)
    except OverflowError:       # a rational beyond the float range: compare exactly
        a, b = Fraction(a), Fraction(b)
        return abs(a - b) <= Fraction(MERGE_REL_TOL) * max(1, abs(a), abs(b))
    return abs(fa - fb) <= MERGE_REL_TOL * max(1.0, abs(fa), abs(fb))


def _canonical_atoms(pairs) -> Tuple[Tuple[Scalar, Scalar], ...]:
    cleaned = []
    for v, p in pairs:
        v, p = _as_scalar(v), _as_scalar(p)
        if p < 0:
            raise ValueError(f"negative mass {p} at atom {v}")
        if p == 0:
            continue
        cleaned.append((v, p))
    if not cleaned:
        raise ValueError("law needs at least one atom of positive mass")
    cleaned.sort(key=lambda a: a[0])     # Fractions and floats compare exactly
    merged: List[Tuple[Scalar, Scalar]] = []
    for v, p in cleaned:
        if merged and _values_close(merged[-1][0], v):
            v0, p0 = merged[-1]
            merged[-1] = (v0, p0 + p)
        else:
            merged.append((v, p))
    total = sum(p for _, p in merged)
    if abs(float(total) - 1.0) > MASS_TOL:
        raise ValueError(f"masses sum to {float(total)}, not 1")
    return tuple(merged)


@dataclass(frozen=True)
class AtomicLaw:
    """A finitely supported probability law, its atoms ascending by exact value."""

    atoms: Tuple[Tuple[Scalar, Scalar], ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "atoms", _canonical_atoms(self.atoms))

    @property
    def values(self) -> Tuple[Scalar, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def masses(self) -> Tuple[Scalar, ...]:
        return tuple(p for _, p in self.atoms)

    @property
    def is_rational(self) -> bool:
        return all(isinstance(v, Fraction) and isinstance(p, Fraction)
                   for v, p in self.atoms)

    @property
    def max_atom_mass(self) -> Scalar:
        return max(self.masses)

    def values_float(self) -> np.ndarray:
        return np.array([float(v) for v in self.values], dtype=np.float64)

    def cum_masses(self) -> np.ndarray:
        c = np.cumsum(np.array([float(p) for p in self.masses], dtype=np.float64))
        c[-1] = 1.0
        return c

    @cached_property
    def _lattice(self) -> Tuple[Tuple[Fraction, ...], Tuple[int, ...], Fraction,
                                Tuple[int, ...], int]:
        """(values, value_ints, unit, counts, total), built once per law for
        the exact engines: the atom values as Fractions, the same values on
        their lattice (values[k] == value_ints[k] * unit), and the masses
        as integer counts with their total."""
        values = tuple(Fraction(v) for v in self.values)
        (ints,), unit = lattice([values])
        (counts,), _ = lattice([self.masses])
        return values, tuple(ints), unit, tuple(counts), sum(counts)

    @cached_property
    def _difference(self) -> "AtomicLaw":
        """difference_law(self), built once per law."""
        acc = {}
        for v1, p1 in self.atoms:
            for v2, p2 in self.atoms:
                v = v1 - v2
                acc[v] = acc.get(v, 0) + p1 * p2
        label = f"diff({self.label})" if self.label else "diff"
        return AtomicLaw(tuple(acc.items()), label=label)

    @cached_property
    def _cum(self) -> np.ndarray:
        """cum_masses(), built once per law for the sampler."""
        c = self.cum_masses()
        c.flags.writeable = False
        return c

    @cached_property
    def _steps(self) -> Tuple[float, Tuple[Tuple[float, float], ...]]:
        """(a0, ((c_j, d_j), ...)), the step form of the lattice values,
        built once per law: a uniform u draws the atom of lattice value
        a0 + sum_j d_j [u >= c_j].  The cut points c_j are _cum[:-1] and
        the test is atom_indices' own, and the d_j are the rises between
        neighbouring value_ints, so the sum is value_ints[atom_indices(
        _cum, u)]; in float64 exactly while every lattice value is at most
        2**52 in size (lattice_values)."""
        ints = self._lattice[1]
        rises = (float(b - a) for a, b in zip(ints, ints[1:]))
        return float(ints[0]), tuple(zip(self._cum[:-1].tolist(), rises))

    def sample_indices(self, rng: np.random.Generator | StreamBlock, size) -> np.ndarray:
        """Atom indices of `size` draws from rng; given a StreamBlock, a
        stack of `size` draws from each of its streams."""
        return atom_indices(self._cum, rng.random(size))

    def lattice_values(self, rng: np.random.Generator, size) -> np.ndarray:
        """value_ints[sample_indices(rng, size)] as float64, from the same
        uniforms by the step form (_steps), which needs no index array;
        above 2**52 a lattice value would round, and ValueError is raised."""
        if max(map(abs, self._lattice[1])) > 2 ** 52:
            raise ValueError("lattice values beyond 2**52 are not exact in float64")
        u = rng.random(size)
        return step_values(self._steps, u, out=u)

    def sample_values(self, rng: np.random.Generator | StreamBlock, size) -> np.ndarray:
        return self.values_float()[self.sample_indices(rng, size)]


def atom_indices(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Index of the atom each uniform u falls in, searchsorted(cum, u,
    side="right") capped at the last atom.  Counting takes one pass per
    atom but no search, and wins from about 1000 draws per atom past the
    first (2 to 33 atoms, 10 to 20,100 draws, timeit); both give the same
    indices."""
    k, draws = len(cum), u.size
    if draws >= 1000 * (k - 1):
        return _count_atoms(cum, u)
    return np.minimum(np.searchsorted(cum, u, side="right"), k - 1)


def _count_atoms(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """#{k < len(cum) - 1 : cum[k] <= u}, which for a sorted cum is
    searchsorted(cum, u, side="right") capped at len(cum) - 1."""
    idx = np.zeros(u.shape, dtype=np.intp)
    for c in cum[:-1]:
        idx += u >= c
    return idx


def step_values(steps: Tuple[float, Tuple[Tuple[float, float], ...]], u: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """a0 + sum_j d_j [u >= c_j] for the step form (a0, ((c_j, d_j), ...))
    of AtomicLaw._steps, one pass per cut point as in _count_atoms, written
    to out (a new array if None; u itself may be passed, as every test
    [u >= c_j] is taken before out is written).  The partial sums are the
    lattice values themselves, so they are exact wherever those are."""
    a0, cuts = steps
    masks = [u >= c for c, _ in cuts]
    if out is None:
        out = np.empty(u.shape)
    if not masks:
        out.fill(a0)
        return out
    np.copyto(out, masks[0])        # a cast from bool beats bool * float
    out *= cuts[0][1]
    out += a0
    for m, (_, d) in zip(masks[1:], cuts[1:]):
        out += m * d
    return out


@dataclass(frozen=True)
class ContinuousLaw:
    """A continuous law: a sampler plus the mass function of |xi - xi'|."""

    label: str
    sample: Callable[[np.random.Generator, object], np.ndarray]
    diff_interval_mass: Callable[[float, float], float]

    is_rational = False

    def sample_values(self, rng: np.random.Generator | StreamBlock, size) -> np.ndarray:
        """sample(rng, size); given a StreamBlock, a stack of one such
        draw from each of its streams."""
        if isinstance(rng, np.random.Generator):
            return self.sample(rng, size)
        shape = (size,) if np.ndim(size) == 0 else tuple(size)
        return np.reshape(rng.map(lambda g: self.sample(g, size)), (len(rng),) + shape)


Law = Union[AtomicLaw, ContinuousLaw]


@dataclass(frozen=True)
class SpacingCertificate:
    """Witness (c1, c2, c3) for P(c1 <= |xi - xi'| <= c2) >= c3."""

    c1: Scalar
    c2: Scalar
    c3: Scalar

    def __post_init__(self):
        object.__setattr__(self, "c1", _as_scalar(self.c1))
        object.__setattr__(self, "c2", _as_scalar(self.c2))
        object.__setattr__(self, "c3", _as_scalar(self.c3))
        if not (0 < self.c1 <= self.c2):
            raise ValueError("need 0 < c1 <= c2")
        if not (0 < self.c3 <= 1):
            raise ValueError("need 0 < c3 <= 1")


# ---------------------------------------------------------------------------
# presets and the config-file law literals


def bernoulli() -> AtomicLaw:
    return AtomicLaw(((-1, Fraction(1, 2)), (1, Fraction(1, 2))), label="bernoulli")


def uniform3() -> AtomicLaw:
    third = Fraction(1, 3)
    return AtomicLaw(((-1, third), (0, third), (1, third)), label="uniform3")


def lazy_sign(mu) -> AtomicLaw:
    """eta^(mu): +-1 with mass mu/2 each, 0 with mass 1 - mu."""
    mu = _as_scalar(mu)
    if not (0 <= mu <= 1):
        raise ValueError("mu must lie in [0, 1]")
    return AtomicLaw(((-1, mu / 2), (0, 1 - mu), (1, mu / 2)), label=f"lazy({float(mu)})")


def gaussian() -> ContinuousLaw:
    def _mass(c1: float, c2: float) -> float:
        # xi - xi' ~ N(0, 2); P(c1 <= |D| <= c2) = erf(c2/2) - erf(c1/2)
        return math.erf(c2 / 2.0) - math.erf(c1 / 2.0)

    return ContinuousLaw(
        label="gaussian",
        sample=lambda rng, size: rng.standard_normal(size),
        diff_interval_mass=_mass,
    )


def uniform_continuous() -> ContinuousLaw:
    h = math.sqrt(3.0)  # U(-sqrt3, sqrt3): zero mean, unit variance

    def _mass(c1: float, c2: float) -> float:
        # |xi - xi'| has density (2h - d) / (2h^2) on [0, 2h]
        def cdf(d: float) -> float:
            d = min(max(d, 0.0), 2 * h)
            return (4 * h * d - d * d) / (4 * h * h)

        return cdf(c2) - cdf(c1)

    return ContinuousLaw(
        label="uniform",
        sample=lambda rng, size: rng.uniform(-h, h, size),
        diff_interval_mass=_mass,
    )


def parse_law(text: str) -> Law:
    """Parse a config-file law literal.

    Accepted: ``bernoulli``, ``lazy(mu)``, ``uniform3``, ``gaussian``,
    ``uniform``, and inline atom lists ``atoms[(v,p),...]`` with rational
    entries like ``1/2``.
    """
    t = text.strip()
    if t == "bernoulli":
        return bernoulli()
    if t == "uniform3":
        return uniform3()
    if t == "gaussian":
        return gaussian()
    if t == "uniform":
        return uniform_continuous()
    if t.startswith("lazy(") and t.endswith(")"):
        try:
            mu = Fraction(t[5:-1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad mu {t[5:-1]!r} in {text!r}: need a rational "
                             "such as 1/2") from None
        return lazy_sign(mu)
    if t.startswith("atoms[") and t.endswith("]"):
        body = t[6:-1].strip()
        pairs = []
        for chunk in body.replace(" ", "").split("),("):
            chunk = chunk.strip("()")
            if not chunk:
                continue
            try:
                v, p = chunk.split(",")
                pairs.append((Fraction(v), Fraction(p)))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad atom ({chunk}) in {text!r}: need (value,mass) "
                                 "with rational entries such as 1/2") from None
        return AtomicLaw(tuple(pairs), label=text)
    raise ValueError(f"unknown law literal: {text!r}")


# ---------------------------------------------------------------------------
# derived laws


def difference_law(law: AtomicLaw) -> AtomicLaw:
    """Exact law of xi - xi' for independent copies, built once per law
    object (the same object on every call)."""
    return law._difference


def verify_spacing(law: Law, cert: SpacingCertificate) -> bool:
    """Check P(c1 <= |xi - xi'| <= c2) >= c3.

    Exact for atomic laws; continuous laws use their interval-mass
    function with a 1e-9 absolute tolerance.
    """
    if isinstance(law, AtomicLaw):
        d = difference_law(law)
        mass = sum(p for v, p in d.atoms if cert.c1 <= abs(v) <= cert.c2)
        return mass >= cert.c3
    mass = law.diff_interval_mass(float(cert.c1), float(cert.c2))
    return mass >= float(cert.c3) - 1e-9


def atom_bound_holds(law: AtomicLaw, c3: Scalar) -> bool:
    """Largest-atom bound sup_a P(xi = a) <= sqrt(1 - c3), squared to stay exact."""
    return law.max_atom_mass ** 2 <= 1 - c3


def auto_certificate(law: Law) -> Optional[SpacingCertificate]:
    """Best spacing certificate derivable from the law itself.

    Atomic: c1, c2 bracket the nonzero atoms of xi - xi' and c3 is their
    exact total mass.  Continuous: a fixed window [1/2, 4] with its
    difference mass.  None when no certificate exists (point masses).
    """
    if isinstance(law, AtomicLaw):
        d = difference_law(law)
        nz = [(v, p) for v, p in d.atoms if v > 0]
        if not nz:
            return None
        c1 = min(v for v, _ in nz)
        c2 = max(v for v, _ in nz)
        c3 = 2 * sum(p for _, p in nz)
        return SpacingCertificate(c1, c2, c3)
    mass = law.diff_interval_mass(0.5, 4.0)
    if mass <= 0:
        return None
    return SpacingCertificate(0.5, 4.0, mass)
