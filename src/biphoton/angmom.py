"""Exact Clebsch-Gordan coefficients and cascade decay-channel couplings.

Angular momenta are stored as doubled integers (``two_j = 2j``) so
half-integer values stay exact.  Coefficients follow the Condon-Shortley
phase convention and are evaluated with exact integer arithmetic under the
square root; the float conversion at the very end is the only rounding step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, sqrt

__all__ = [
    "AngularMomentum",
    "CascadeLevels",
    "PATH_X",
    "PATH_Y",
    "clebsch_gordan",
    "path_coupling_x",
]


def _double(value) -> int:
    """Convert an integer or half-integer quantum number to a doubled int."""
    doubled = 2 * Fraction(value)
    if doubled.denominator != 1:
        raise ValueError(f"{value!r} is not an integer or half-integer")
    return int(doubled)


@dataclass(frozen=True)
class AngularMomentum:
    """An angular momentum state (j, m), stored doubled: two_j = 2j, two_m = 2m."""

    two_j: int
    two_m: int

    def __post_init__(self) -> None:
        if self.two_j < 0:
            raise ValueError(f"two_j must be non-negative, got {self.two_j}")
        if abs(self.two_m) > self.two_j:
            raise ValueError(
                f"projection out of range: two_m={self.two_m}, two_j={self.two_j}"
            )
        if (self.two_j - self.two_m) % 2 != 0:
            raise ValueError(
                f"two_j={self.two_j} and two_m={self.two_m} must have equal parity"
            )

    @classmethod
    def of(cls, j, m) -> "AngularMomentum":
        """Build from plain quantum numbers, e.g. ``AngularMomentum.of(3/2, -1/2)``."""
        return cls(_double(j), _double(m))

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def m(self) -> float:
        return self.two_m / 2


def _triangle_ok(two_a: int, two_b: int) -> bool:
    # coupling via a single photon (j = 1): |a - b| <= 1 <= a + b, and the
    # two F values must differ by an integer
    return (
        abs(two_a - two_b) <= 2
        and two_a + two_b >= 2
        and (two_a - two_b) % 2 == 0
    )


# Largest F a cascade level may have.  Real hyperfine levels stay far below
# it, and predicting a path's state takes steeply longer as F grows (0.6 s at
# F = 200, 80 s at F = 1000).
MAX_F = 20


@dataclass(frozen=True)
class CascadeLevels:
    """Total angular momenta F of the four levels in the cascade g -> b -> e -> d -> g.

    ``g`` is the ground level, ``b`` the intermediate level reached by the
    first pump, ``e`` the top level, and ``d`` the intermediate level of the
    two-photon decay.  Every adjacent pair along the chain must satisfy the
    dipole (photon j = 1) triangle rule.
    """

    two_f_g: int
    two_f_b: int
    two_f_e: int
    two_f_d: int

    def __post_init__(self) -> None:
        two_f_max = max(self.two_f_g, self.two_f_b, self.two_f_e, self.two_f_d)
        if two_f_max > 2 * MAX_F:
            raise ValueError(f"F above {MAX_F} is not supported, got F = {two_f_max / 2:g}")
        chain = [
            ("g-b", self.two_f_g, self.two_f_b),
            ("b-e", self.two_f_b, self.two_f_e),
            ("e-d", self.two_f_e, self.two_f_d),
            ("d-g", self.two_f_d, self.two_f_g),
        ]
        for step, two_a, two_b in chain:
            if two_a < 0 or two_b < 0:
                raise ValueError("angular momenta must be non-negative")
            if not _triangle_ok(two_a, two_b):
                raise ValueError(
                    f"levels {step} violate the single-photon triangle rule: "
                    f"2F = {two_a}, {two_b}"
                )

    @classmethod
    def of(cls, f_g, f_b, f_e, f_d) -> "CascadeLevels":
        """Build from plain F values, e.g. ``CascadeLevels.of(2, 2, 3, 3)``."""
        return cls(_double(f_g), _double(f_b), _double(f_e), _double(f_d))

    @property
    def f_values(self) -> tuple[float, float, float, float]:
        return (self.two_f_g / 2, self.two_f_b / 2, self.two_f_e / 2, self.two_f_d / 2)


#: Decay routed through the stronger intermediate hyperfine level (F = 3).
PATH_X = CascadeLevels.of(2, 2, 3, 3)
#: Decay routed through the weaker intermediate hyperfine level (F = 2).
PATH_Y = CascadeLevels.of(2, 2, 3, 2)


def _half_factorial(two_x: int) -> int:
    """(two_x / 2)! for an even, non-negative doubled integer."""
    return factorial(two_x // 2)


def _cg_doubled(tj1: int, tm1: int, tj2: int, tm2: int, tj3: int, tm3: int) -> float:
    """<j1 m1; j2 m2 | j3 m3> from doubled integers; 0.0 on any selection-rule violation.

    Racah's closed form, with the radicand and the alternating sum kept as
    exact rationals.  The sign comes from the exact sum, so the returned
    float is a correctly signed square root accurate to ~1 ulp.
    """
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm3) > tj3:
        return 0.0
    if tm1 + tm2 != tm3:
        return 0.0
    if tj3 < abs(tj1 - tj2) or tj3 > tj1 + tj2:
        return 0.0
    if (tj1 + tj2 + tj3) % 2 != 0:
        return 0.0

    prefactor = Fraction(
        (tj3 + 1)
        * _half_factorial(tj1 + tj2 - tj3)
        * _half_factorial(tj1 - tj2 + tj3)
        * _half_factorial(-tj1 + tj2 + tj3)
        * _half_factorial(tj3 + tm3)
        * _half_factorial(tj3 - tm3)
        * _half_factorial(tj1 - tm1)
        * _half_factorial(tj1 + tm1)
        * _half_factorial(tj2 - tm2)
        * _half_factorial(tj2 + tm2),
        _half_factorial(tj1 + tj2 + tj3 + 2),
    )

    t1 = (tj1 + tj2 - tj3) // 2
    t2 = (tj1 - tm1) // 2
    t3 = (tj2 + tm2) // 2
    t4 = (tj3 - tj2 + tm1) // 2
    t5 = (tj3 - tj1 - tm2) // 2

    total = Fraction(0)
    for k in range(max(0, -t4, -t5), min(t1, t2, t3) + 1):
        total += Fraction(
            (-1) ** k,
            factorial(k)
            * factorial(t1 - k)
            * factorial(t2 - k)
            * factorial(t3 - k)
            * factorial(t4 + k)
            * factorial(t5 + k),
        )
    if total == 0:
        return 0.0
    sign = 1.0 if total > 0 else -1.0
    return sign * sqrt(float(prefactor * total * total))


def clebsch_gordan(j1: AngularMomentum, j2: AngularMomentum, j_total: AngularMomentum) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> (Condon-Shortley).

    Returns 0.0 when m1 + m2 != M or the triangle rule is violated.  Invalid
    (j, m) pairs cannot be represented by :class:`AngularMomentum` and raise
    at construction.
    """
    return _cg_doubled(
        j1.two_j, j1.two_m, j2.two_j, j2.two_m, j_total.two_j, j_total.two_m
    )


def path_coupling_x(
    levels: CascadeLevels, alpha_s: int, alpha_i: int, *, m_margin: int = 0
) -> float:
    """Coherent coupling amplitude of one polarization channel of the cascade.

    Sums, over the ground-level Zeeman sublevels m, the product of the four
    dipole coupling coefficients along the chain: the two pump steps (driven
    with Delta m = -1 then +1), the signal emission carrying away ``alpha_s``
    units of projection, and the idler emission carrying away ``alpha_i``.
    Because the process is parametric, a sublevel contributes only when the
    chain returns the atom to its initial projection; channels that cannot
    conserve angular momentum therefore sum to exactly zero.

    Parameters
    ----------
    levels : CascadeLevels
        The four F values of the cascade.
    alpha_s, alpha_i : int
        Helicity (+1 or -1) transferred by the signal / idler photon.
    m_margin : int, optional
        Extend the sublevel sum this many units beyond the physical range
        +-F_g.  The extra terms are exactly zero; the knob exists so the
        truncation can be verified.

    Returns
    -------
    float
        The unnormalized channel amplitude.
    """
    if alpha_s not in (1, -1) or alpha_i not in (1, -1):
        raise ValueError(f"helicities must be +1 or -1, got {alpha_s}, {alpha_i}")

    two_span = levels.two_f_g + 2 * m_margin
    total = 0.0
    for two_m in range(-two_span, two_span + 1, 2):
        two_m_b = two_m - 2          # first pump: Delta m = -1
        two_m_e = two_m              # second pump: Delta m = +1
        two_m_d = two_m_e - 2 * alpha_s
        two_m_g_final = two_m_d - 2 * alpha_i
        if two_m_g_final != two_m:   # parametric process: medium returns to start
            continue
        total += (
            _cg_doubled(levels.two_f_g, two_m, 2, -2, levels.two_f_b, two_m_b)
            * _cg_doubled(levels.two_f_b, two_m_b, 2, 2, levels.two_f_e, two_m_e)
            * _cg_doubled(levels.two_f_d, two_m_d, 2, 2 * alpha_s, levels.two_f_e, two_m_e)
            * _cg_doubled(levels.two_f_g, two_m_g_final, 2, 2 * alpha_i, levels.two_f_d, two_m_d)
        )
    return total
