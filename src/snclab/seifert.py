"""Weighted-homogeneity and circle-bundle link calculators.

Rational cohomology of a link fibered over a compact orbifold base comes
from a two-row spectral sequence whose differential is cup product with
the polarization class; only the injectivity/surjectivity ranges of that
differential enter, which pins the link Betti numbers to differences of
base Betti numbers.  Inputs that violate the orbifold hypotheses surface
as negative intermediate values and are rejected.

The second-homology feasibility test for fixed-point-free circle actions
on simply connected 5-manifolds and the prime-power bookkeeping for the
Barden invariant live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .complexes import AbelianGroup
from .jsonread import expect_int, expect_list, expect_object, expect_rational


class SeifertError(ValueError):
    pass


@dataclass(frozen=True)
class WeightSystem:
    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.weights:
            raise SeifertError("empty weight system")
        for w in self.weights:
            if w < 1:
                raise SeifertError("weights must be positive integers")

    @classmethod
    def build(cls, weights: Sequence[int]) -> "WeightSystem":
        return cls(tuple(int(w) for w in weights))


def weighted_degree(monomial: Sequence[int], weights: WeightSystem) -> int:
    """Sum of exponent times variable weight."""
    if len(monomial) != len(weights.weights):
        raise SeifertError("monomial length does not match the weight system")
    return sum(a * w for a, w in zip(monomial, weights.weights))


def is_weighted_homogeneous(
    monomials: Sequence[Sequence[int]], weights: WeightSystem
) -> Optional[int]:
    """The common weighted degree of the monomials, or None."""
    if not monomials:
        raise SeifertError("a polynomial needs at least one monomial")
    degrees = {weighted_degree(m, weights) for m in monomials}
    if len(degrees) == 1:
        return degrees.pop()
    return None


@dataclass(frozen=True)
class BaseCohomology:
    """Rational Betti numbers h^0..h^{2d} of a compact orbifold base.

    Validation is the minimal set the formulas need: h^0 = h^{2d} = 1,
    nonnegative entries, and h^1 even (compact Kaehler orbifold parity,
    which is also what keeps first link Betti numbers even).
    """

    d: int
    h: tuple[int, ...]

    def __post_init__(self):
        if self.d < 1:
            raise SeifertError("base dimension must be at least 1")
        if len(self.h) != 2 * self.d + 1:
            raise SeifertError(f"h must list h^0..h^{2 * self.d}")
        if any(x < 0 for x in self.h):
            raise SeifertError("Betti numbers are nonnegative")
        if self.h[0] != 1 or self.h[-1] != 1:
            raise SeifertError("a compact connected base needs h^0 = h^{2d} = 1")
        if self.h[1] % 2 != 0:
            raise SeifertError("h^1 must be even for a Kaehler orbifold base")

    @classmethod
    def build(cls, d: int, h: Sequence[int]) -> "BaseCohomology":
        return cls(int(d), tuple(int(x) for x in h))

    def hq(self, i: int) -> int:
        if 0 <= i < len(self.h):
            return self.h[i]
        return 0

    def to_json_dict(self) -> dict:
        return {"d": self.d, "h": list(self.h)}


def base_from_json_dict(data: dict) -> BaseCohomology:
    data = expect_object(data, SeifertError, "a base", "d", "h")
    return BaseCohomology.build(expect_int(data["d"], SeifertError, "'d'"),
                                expect_list(data["h"], SeifertError, "'h'", expect_int))


def link_betti(base: BaseCohomology) -> tuple[int, ...]:
    """Betti numbers h^0..h^{2d+1} of the link over the base.

    h^i(L) = h^i(Z) - h^{i-2}(Z) up to the middle degree and
    h^{i+1}(L) = h^i(Z) - h^{i+2}(Z) from the middle up; a negative
    difference means the input was not an orbifold base in the required
    sense and is an error.
    """
    d = base.d
    out = [0] * (2 * d + 2)
    for i in range(0, d + 1):
        out[i] = base.hq(i) - base.hq(i - 2)
    for i in range(d, 2 * d + 1):
        out[i + 1] = base.hq(i) - base.hq(i + 2)
    for i, v in enumerate(out):
        if v < 0:
            raise SeifertError(
                f"negative link Betti number h^{i}; the base violates the "
                "orbifold hypotheses"
            )
    return tuple(out)


def is_rational_homology_sphere(base: BaseCohomology) -> bool:
    """The link is a rational homology sphere iff the base has the rational
    cohomology of complex projective space."""
    for i, v in enumerate(base.h):
        expected = 1 if i % 2 == 0 else 0
        if v != expected:
            return False
    return True


INFINITE = "inf"


@dataclass(frozen=True)
class H2Decomposition:
    """H_2 of a simply connected 5-manifold in prime-power form.

    k is the rational rank; c maps prime powers p^i to multiplicities;
    barden is the invariant locating the second Stiefel-Whitney class,
    a nonnegative integer or the string "inf".
    """

    k: int
    c: tuple[tuple[int, int], ...]
    barden: object = 0

    def __post_init__(self):
        if self.k < 0:
            raise SeifertError("negative rank")
        seen = set()
        for q, mult in self.c:
            if self._splits[q] is None:
                raise SeifertError(f"{q} is not a prime power")
            if mult < 1:
                raise SeifertError("multiplicities must be positive")
            if q in seen:
                raise SeifertError(f"duplicate prime power {q}")
            seen.add(q)
        if self.barden != INFINITE:
            n = self.barden
            if not isinstance(n, int) or n < 0:
                raise SeifertError("barden invariant must be a nonnegative integer or 'inf'")
            if n > 0 and (2, n) not in self._splits.values():
                raise SeifertError(f"barden invariant {n} needs a Z/2^{n} summand in H_2")

    @cached_property
    def _splits(self) -> dict[int, Optional[tuple[int, int]]]:
        """q -> (p, e) with q = p^e, or None; each key is factored once."""
        return {q: _prime_power_split(q) for q, _ in self.c}

    @classmethod
    def build(cls, k: int, c: dict, barden=0) -> "H2Decomposition":
        pairs = tuple(sorted((int(q), int(mult)) for q, mult in c.items()))
        value = INFINITE if barden in (INFINITE, None) else int(barden)
        return cls(int(k), pairs, value)

    def multiplicity(self, q: int) -> int:
        for qq, mult in self.c:
            if qq == q:
                return mult
        return 0

    def powers_of(self, p: int) -> list[tuple[int, int]]:
        return [(q, mult) for q, mult in self.c if self._splits[q][0] == p]

    def primes(self) -> list[int]:
        return sorted({p for p, _ in self._splits.values()})

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "c": {str(q): mult for q, mult in self.c},
            "iM": self.barden if self.barden == INFINITE else int(self.barden),
        }


def decomposition_from_json_dict(data: dict) -> H2Decomposition:
    data = expect_object(data, SeifertError, "an H2 decomposition")
    c, barden = expect_object(data.get("c", {}), SeifertError, "'c'"), data.get("iM", 0)
    if not all(q.isdecimal() for q in c):
        raise SeifertError(f"the keys of 'c' must be decimal integers, not {list(c)!r}")
    return H2Decomposition.build(
        expect_int(data.get("k", 0), SeifertError, "'k'"),
        {expect_rational(q, SeifertError, "a 'c' key"): expect_int(m, SeifertError, "a 'c' value")
         for q, m in c.items()},
        barden if barden == INFINITE else expect_int(barden, SeifertError, "'iM' (or \"inf\")"),
    )


PRIME_POWER_BOUND = 10 ** 12


def _prime_power_split(q: int) -> Optional[tuple[int, int]]:
    """(p, e) with q = p^e for a prime p, else None.  Trial division reads
    q up to PRIME_POWER_BOUND, where it takes about a tenth of a second."""
    if q > PRIME_POWER_BOUND:
        raise SeifertError(f"{q} is above the bound 10^12 on prime powers")
    factors = _factorize(q)
    return next(iter(factors.items())) if len(factors) == 1 else None


def circle_action_feasible(h: H2Decomposition) -> tuple[bool, Optional[str]]:
    """The three conditions for a fixed-point-free circle action.

    (1) each prime contributes at most k+1 distinct prime-power orders;
    (2) the Barden invariant is 0, 1 or infinity;
    (3) when it is infinity, the prime 2 contributes at most k orders.
    Returns feasibility plus the first failed condition name.
    """
    for p in h.primes():
        if len(h.powers_of(p)) > h.k + 1:
            return False, "condition_1"
    if h.barden != INFINITE and h.barden not in (0, 1):
        return False, "condition_2"
    if h.barden == INFINITE and len(h.powers_of(2)) > h.k:
        return False, "condition_3"
    return True, None


def to_prime_power_decomposition(group: AbelianGroup) -> tuple[int, dict[int, int]]:
    """Split invariant factors into prime powers and aggregate multiplicities."""
    c: dict[int, int] = {}
    for d in group.torsion:
        for p, e in _factorize(d).items():
            q = p ** e
            c[q] = c.get(q, 0) + 1
    return group.rank, c


def from_prime_powers(k: int, c: dict[int, int]) -> AbelianGroup:
    """Reassemble invariant factors from prime-power multiplicities."""
    by_prime: dict[int, list[int]] = {}
    for q, mult in c.items():
        split = _prime_power_split(q)
        if split is None:
            raise SeifertError(f"{q} is not a prime power")
        p, e = split
        by_prime.setdefault(p, []).extend([p ** e] * mult)
    for p in by_prime:
        by_prime[p].sort(reverse=True)
    depth = max((len(v) for v in by_prime.values()), default=0)
    factors = []
    for slot in range(depth):
        f = 1
        for p in sorted(by_prime):
            if slot < len(by_prime[p]):
                f *= by_prime[p][slot]
        factors.append(f)
    return AbelianGroup.from_invariant_factors(k, sorted(factors))


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
