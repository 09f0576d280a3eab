"""Dipole Clebsch-Gordan coefficients and cascade decay-channel couplings.

Angular momenta are stored as doubled integers (``two_j = 2j``) so
half-integer values stay exact.  Every coupling in the cascade carries a
photon of j = 1, so the coefficients come from the closed-form j = 1 table
(Condon-Shortley phases): the square of each is an exact ratio of integers,
and one division and one square root are its only rounding steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import copysign, sqrt

__all__ = [
    "CascadeLevels",
    "PATH_X",
    "PATH_Y",
    "path_coupling_x",
]


def _double(value) -> int:
    """Convert an integer or half-integer quantum number to a doubled int."""
    doubled = 2 * Fraction(value)
    if doubled.denominator != 1:
        raise ValueError(f"{value!r} is not an integer or half-integer")
    return int(doubled)


def _triangle_ok(two_a: int, two_b: int) -> bool:
    # coupling via a single photon (j = 1): |a - b| <= 1 <= a + b, and the
    # two F values must differ by an integer
    return (
        abs(two_a - two_b) <= 2
        and two_a + two_b >= 2
        and (two_a - two_b) % 2 == 0
    )


# Largest F a cascade level may have.  Real hyperfine levels stay far below
# it.  Each coupling sums over the 2F_g + 1 ground sublevels, so without a
# bound a level set such as `--levels 1e300,1e300,1e300,1e300` would pass
# the triangle rule and then never finish.
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


def _dipole_cg(two_j: int, two_m: int, q: int, two_J: int) -> float:
    """<j m; 1 q | J m+q> from doubled j, m and J; 0.0 when a selection rule forbids it.

    The standard table for a photon of j = 1 (Condon-Shortley phases).  The
    signed square of each coefficient is a ratio of ints, divided once
    (correctly rounded) and rooted once (correctly rounded).
    """
    if abs(two_m) > two_j or (two_j - two_m) % 2 or two_j + two_J < 2:
        return 0.0
    a, b = two_j + two_m, two_j - two_m  # 2(j + m), 2(j - m)
    if two_J == two_j + 2:
        num = {1: (a + 2) * (a + 4), 0: 2 * (a + 2) * (b + 2), -1: (b + 2) * (b + 4)}[q]
        den = 4 * (two_j + 1) * (two_j + 2)
    elif two_J == two_j:
        num = {1: -(a + 2) * b, 0: 2 * two_m * abs(two_m), -1: a * (b + 2)}[q]
        den = 2 * two_j * (two_j + 2)
    elif two_J == two_j - 2:
        num = {1: b * (b - 2), 0: -2 * a * b, -1: a * (a - 2)}[q]
        den = 4 * two_j * (two_j + 1)
    else:
        return 0.0
    return copysign(sqrt(abs(num) / den), num)


def path_coupling_x(levels: CascadeLevels, alpha_s: int, alpha_i: int) -> float:
    """Coherent coupling amplitude of one polarization channel of the cascade.

    Sums, over the ground-level Zeeman sublevels m, the product of the four
    dipole coupling coefficients along the chain: the two pump steps (driven
    with Delta m = -1 then +1), the signal emission carrying away ``alpha_s``
    units of projection, and the idler emission carrying away ``alpha_i``.
    Because the process is parametric, the chain must return the atom to its
    initial projection, which it does for every m exactly when
    alpha_s + alpha_i = 0; the co-rotating channels are therefore zero, and a
    channel can still sum to zero when its sublevels cannot conserve angular
    momentum.

    Parameters
    ----------
    levels : CascadeLevels
        The four F values of the cascade.
    alpha_s, alpha_i : int
        Helicity (+1 or -1) transferred by the signal / idler photon.

    Returns
    -------
    float
        The unnormalized channel amplitude.
    """
    if alpha_s not in (1, -1) or alpha_i not in (1, -1):
        raise ValueError(f"helicities must be +1 or -1, got {alpha_s}, {alpha_i}")
    if alpha_s + alpha_i:
        return 0.0

    total = 0.0
    for two_m in range(-levels.two_f_g, levels.two_f_g + 1, 2):
        two_m_d = two_m + 2 * alpha_i  # the idler brings the atom back from d to m
        total += (
            _dipole_cg(levels.two_f_g, two_m, -1, levels.two_f_b)  # pumps: Delta m = -1, +1
            * _dipole_cg(levels.two_f_b, two_m - 2, 1, levels.two_f_e)
            * _dipole_cg(levels.two_f_d, two_m_d, alpha_s, levels.two_f_e)  # signal: e -> d
            * _dipole_cg(levels.two_f_g, two_m, alpha_i, levels.two_f_d)  # idler: d -> g
        )
    return total
