"""Spectra as specialization posets.

Two models of the prime spectrum of a commutative Noetherian ring are
supported:

* ``FinPoset`` -- an arbitrary finite poset of "primes", ordered by
  inclusion and described by its covering relation.
* ``SPEC_Z`` -- the arithmetic spectrum of the integers: one generic
  point (the zero ideal) below the maximal ideals (p), one per prime
  number p.

Subsets stable under specialization ("sp-subsets") are the basic
currency of the whole package: over a finite poset they are up-sets,
over Spec(Z) they are the whole space or a finite/cofinite set of
maximal ideals.

Each model offers a finite sample of its points (``sample``), the order
``lt``, the covering pairs among sampled points (``cover_pairs``), the
subset with given sampled members (``subset``), ``whole``/``empty``,
``check_point``, ``subset_from_json`` and the level values of a census
(``census_levels``).  Every order-theoretic helper below is written once
over these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .jsonio import integer


# ---------------------------------------------------------------------------
# primality (64-bit, deterministic)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit integers.

    >>> [p for p in range(2, 30) if is_prime(p)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(2**61 - 1)
    True
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n (Brent's cycle variant)."""
    from math import gcd

    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed, 128
        g = r = q = 1
        ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n, by Newton iteration on integers."""
    if n < 2:
        return n
    x = 1 << (n.bit_length() // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int):
    """(root, k) with root**k == n and k maximal, or None."""
    for k in range(n.bit_length(), 1, -1):
        r = _iroot(n, k)
        if r > 1 and r**k == n:
            return r, k
    return None


def factorint(n: int) -> dict[int, int]:
    """Prime factorization: trial division for small factors, then perfect
    powers and Pollard rho for whatever remains (invariant factors can
    carry 64-bit primes, e.g. from resolutions of Z/p^e with p large).

    >>> factorint(360)
    {2: 3, 3: 2, 5: 1}
    >>> factorint((2**61 - 1) * 4) == {2: 2, 2**61 - 1: 1}
    True
    >>> factorint((2**61 - 1) ** 2) == {2**61 - 1: 2}
    True
    """
    n = abs(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n and p < 10_000:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    stack = [(n, 1)] if n > 1 else []
    while stack:
        m, mult = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + mult
            continue
        power = _perfect_power(m)
        if power:
            stack.append((power[0], mult * power[1]))
            continue
        d = _pollard_rho(m)
        stack += [(d, mult), (m // d, mult)]
    return dict(sorted(out.items()))


def next_prime(n: int) -> int:
    n += 1
    while not is_prime(n):
        n += 1
    return n


MAX_PRIME = 2**63 - 1


# ---------------------------------------------------------------------------
# points

GENERIC = 0  # the zero ideal of Z, i.e. the generic point of Spec(Z)


@dataclass(frozen=True, order=True)
class SpecZPoint:
    """A point of Spec(Z): the generic point (p == 0) or a maximal ideal (p).

    >>> SpecZPoint(0).is_generic
    True
    >>> print(SpecZPoint(7))
    (7)
    """

    p: int

    def __post_init__(self):
        if self.p != 0:
            if not (2 <= self.p <= MAX_PRIME):
                raise ValueError(f"prime out of 64-bit range: {self.p}")
            if not is_prime(self.p):
                raise ValueError(f"not a prime number: {self.p}")

    @property
    def is_generic(self) -> bool:
        return self.p == 0

    def __str__(self) -> str:
        return "0" if self.p == 0 else f"({self.p})"


def zpoint(p) -> SpecZPoint:
    """The point named by p.  A point is returned as it is; the points
    named otherwise are cached, so a prime is tested once (a refusal is
    not cached and is raised on every call)."""
    if isinstance(p, SpecZPoint):
        return p
    return _named_point(p)


@lru_cache(maxsize=256)
def _named_point(p) -> SpecZPoint:
    # a point keys the cache by its dataclass hash, slower than the
    # isinstance test in zpoint
    return SpecZPoint(int(p))


# ---------------------------------------------------------------------------
# the two spectrum models


class FinPoset:
    """A finite poset of primes given by its covering relation.

    ``covers`` contains the pairs ``(p, q)`` with p strictly below q and
    nothing strictly between ("p is maximal under q").  The full order is
    the transitive closure; it must be a strict partial order and every
    listed pair must be a genuine cover.

    >>> P = FinPoset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    >>> sorted(P.strictly_below("c"))
    ['a', 'b']
    >>> FinPoset(["a", "b"], [("a", "b"), ("b", "a")])
    Traceback (most recent call last):
        ...
    ValueError: covers contain a cycle
    """

    def __init__(self, points: Iterable[str], covers: Iterable[tuple[str, str]] = ()):
        self.points: tuple[str, ...] = tuple(dict.fromkeys(points))
        pts = set(self.points)
        if len(pts) != len(self.points):
            raise ValueError("duplicate point identifiers")
        cov = set()
        for p, q in covers:
            if p not in pts or q not in pts:
                raise ValueError(f"unknown point in cover ({p!r}, {q!r})")
            if p == q:
                raise ValueError("covers contain a cycle")
            cov.add((p, q))
        self.covers: frozenset[tuple[str, str]] = frozenset(cov)
        self._cover_pairs = tuple(sorted(cov))
        self._below = self._transitive_closure()
        for p, q in self.covers:
            between = self._below[q] & {r for r in pts if p in self._below[r]}
            if between:
                raise ValueError(
                    f"({p!r}, {q!r}) is not a covering pair: {sorted(between)!r} lies between"
                )

    def _transitive_closure(self) -> dict[str, frozenset[str]]:
        # below[q] = set of points strictly below q; cycle check by DFS.
        children: dict[str, set[str]] = {p: set() for p in self.points}
        for p, q in self.covers:
            children[q].add(p)
        below: dict[str, frozenset[str]] = {}
        state: dict[str, int] = {}

        def visit(q: str):
            if state.get(q) == 1:
                raise ValueError("covers contain a cycle")
            if state.get(q) == 2:
                return
            state[q] = 1
            acc: set[str] = set()
            for c in children[q]:
                visit(c)
                acc.add(c)
                acc |= below[c]
            if q in acc:
                raise ValueError("covers contain a cycle")
            below[q] = frozenset(acc)
            state[q] = 2

        for q in self.points:
            visit(q)
        return below

    # -- order calculus -----------------------------------------------------

    def check_point(self, p: str) -> str:
        if p not in self._below:
            raise ValueError(f"unknown point identifier: {p!r}")
        return p

    def lt(self, p: str, q: str) -> bool:
        return p in self._below[q]

    def leq(self, p: str, q: str) -> bool:
        return p == q or p in self._below[q]

    def strictly_below(self, q: str) -> frozenset[str]:
        return self._below[self.check_point(q)]

    # -- the finite sample (every point; ``named`` is ignored) ----------------

    def sample(self, named=()) -> tuple[str, ...]:
        return self.points

    def cover_pairs(self, named=()) -> tuple[tuple[str, str], ...]:
        return self._cover_pairs

    def subset(self, members, named=()) -> "PosetSubset":
        return PosetSubset(self, frozenset(members))

    def whole(self) -> "PosetSubset":
        return PosetSubset(self, frozenset(self.points))

    def empty(self) -> "PosetSubset":
        return PosetSubset(self, frozenset())

    def census_levels(self, universe, cap) -> list["PosetSubset"]:
        return all_up_sets(self, cap=cap)

    def __eq__(self, other):
        return (
            isinstance(other, FinPoset)
            and set(self.points) == set(other.points)
            and self.covers == other.covers
        )

    def __hash__(self):
        return hash((frozenset(self.points), self.covers))

    def __repr__(self):
        return f"FinPoset({list(self.points)!r}, {sorted(self.covers)!r})"

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "points": [{"id": p} for p in self.points],
            "covers": [list(c) for c in sorted(self.covers)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FinPoset":
        points = [entry["id"] for entry in obj["points"]]
        for p in points:
            if not isinstance(p, str):
                raise TypeError(f"point id must be a string, got {p!r}")
        covers = obj.get("covers", ())
        for c in covers:
            if not (isinstance(c, list) and len(c) == 2):
                raise TypeError(f"a cover must be a list of two point ids, got {c!r}")
        return cls(points, [tuple(c) for c in covers])

    def subset_from_json(self, obj: dict) -> "PosetSubset":
        kind = obj["kind"]
        if kind == "points":
            return PosetSubset(self, frozenset(obj["points"]))
        if kind == "whole":
            return self.whole()
        raise ValueError(f"a finite poset has no subset of kind {kind!r}")


class SpecZ:
    """The spectrum of the integers.

    A singleton stand-in: the point set is infinite, so the order-theoretic
    helpers see it through a finite sample: the generic point, the primes
    named by their inputs and one fresh prime, which stands for every
    unnamed maximal ideal (see ``sample_points``).

    >>> SPEC_Z.cover_pairs({3})
    [(SpecZPoint(p=0), SpecZPoint(p=3)), (SpecZPoint(p=0), SpecZPoint(p=2))]
    >>> SPEC_Z.subset([SpecZPoint(3), SpecZPoint(2)], {3})
    ZSubset.cofinite([])
    """

    def check_point(self, p) -> SpecZPoint:
        """The point named by p; a string may be a printed form, 0 or (p)."""
        if isinstance(p, str):
            try:
                p = int(p.strip("()"))
            except ValueError:
                raise ValueError(f"not a point of Spec(Z): {p!r}") from None
        return zpoint(p)

    def lt(self, p, q) -> bool:
        return zpoint(p).is_generic and not zpoint(q).is_generic

    def sample(self, named=()) -> tuple[SpecZPoint, ...]:
        """``sample_points`` of the whole spectrum; ``named`` holds primes
        or points."""
        return sample_points(ZSubset.whole(), _named_primes(named))

    def cover_pairs(self, named=()) -> list[tuple[SpecZPoint, SpecZPoint]]:
        generic, *maximals = self.sample(named)
        return [(generic, q) for q in maximals]

    def subset(self, members, named=()) -> "ZSubset":
        """The subset whose points in ``sample(named)`` are ``members``."""
        pts = [zpoint(m) for m in members]
        if any(pt.is_generic for pt in pts):
            return ZSubset.whole()
        named = _named_primes(named)
        primes = {pt.p for pt in pts}
        if fresh_prime(named) in primes:
            return ZSubset.cofinite(named - primes)
        return ZSubset.finite(primes)

    def whole(self) -> "ZSubset":
        return ZSubset.whole()

    def empty(self) -> "ZSubset":
        return ZSubset.empty()

    def census_levels(self, universe, cap) -> list["ZSubset"]:
        """The whole spectrum and every finite set of primes of ``universe``."""
        if universe is None:
            raise ValueError("a prime universe is required over Spec(Z)")
        primes = sorted(set(int(p) for p in universe))
        return [ZSubset.whole()] + [
            ZSubset.finite(comb)
            for r in range(len(primes) + 1)
            for comb in itertools.combinations(primes, r)
        ]

    def subset_from_json(self, obj: dict) -> "ZSubset":
        kind = obj["kind"]
        if kind == "whole":
            return ZSubset.whole()
        if kind == "finite":
            return ZSubset.finite(_primes_from_json(obj))
        if kind == "cofinite":
            return ZSubset.cofinite(_primes_from_json(obj))
        raise ValueError(f"Spec(Z) has no subset of kind {kind!r}")

    def __eq__(self, other):
        return isinstance(other, SpecZ)

    def __hash__(self):
        return hash("SpecZ")

    def __repr__(self):
        return "SPEC_Z"

    def to_json(self) -> dict:
        return {"ring": "Z"}


SPEC_Z = SpecZ()


def spectrum_from_json(obj: dict):
    if obj.get("ring") == "Z":
        return SPEC_Z
    return FinPoset.from_json(obj)


# ---------------------------------------------------------------------------
# sp-subsets


@dataclass(frozen=True)
class PosetSubset:
    """An up-set of a finite poset (a subset stable under specialization)."""

    spectrum: FinPoset
    points: frozenset[str]

    # the sample of a finite poset is every point, so a poset subset names
    # no prime number (``ZSubset.primes`` on the Spec(Z) side)
    primes = frozenset()

    def __post_init__(self):
        for p in self.points:
            self.spectrum.check_point(p)
        for p in self.points:
            for q in self.spectrum.points:
                if self.spectrum.lt(p, q) and q not in self.points:
                    raise ValueError(
                        f"not stable under specialization: {p!r} in, {q!r} out"
                    )

    def contains(self, p: str) -> bool:
        return p in self.points

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def is_whole(self) -> bool:
        return self.points == frozenset(self.spectrum.points)

    def issubset(self, other: "PosetSubset") -> bool:
        return self.points <= other.points

    def meet(self, other: "PosetSubset") -> "PosetSubset":
        return PosetSubset(self.spectrum, self.points & other.points)

    def join(self, other: "PosetSubset") -> "PosetSubset":
        return PosetSubset(self.spectrum, self.points | other.points)

    def __str__(self):
        return "{" + ",".join(sorted(self.points)) + "}"

    def to_json(self) -> dict:
        return {"kind": "points", "points": sorted(self.points)}


@dataclass(frozen=True)
class ZSubset:
    """A canonical sp-subset of Spec(Z).

    Three shapes: the whole spectrum, a finite set of maximal ideals, or
    a cofinite set of maximal ideals (every (p) outside a finite excluded
    set).  Any subset containing the generic point is forced whole, since
    the generic point specializes to everything.

    >>> ZSubset.finite([5, 2]).issubset(ZSubset.cofinite([3]))
    True
    >>> ZSubset.cofinite([2]).meet(ZSubset.finite([2, 7]))
    ZSubset.finite([7])
    """

    kind: str  # "whole" | "finite" | "cofinite"
    primes: frozenset[int]

    spectrum = SPEC_Z  # as PosetSubset.spectrum

    def __post_init__(self):
        if self.kind not in ("whole", "finite", "cofinite"):
            raise ValueError(f"bad subset kind {self.kind!r}")
        if self.kind == "whole" and self.primes:
            raise ValueError("whole subset carries no prime data")
        for p in self.primes:
            if zpoint(p).is_generic:
                raise ValueError("a subset prime must be a prime number, got 0")
        # the oracle's caches hash whole rows of labels on every lookup
        object.__setattr__(self, "_hash", hash((self.kind, self.primes)))

    def __hash__(self):
        return self._hash

    # -- constructors --------------------------------------------------------

    @staticmethod
    def whole() -> "ZSubset":
        return ZSubset("whole", frozenset())

    @staticmethod
    def empty() -> "ZSubset":
        return ZSubset("finite", frozenset())

    @staticmethod
    def finite(primes: Iterable[int]) -> "ZSubset":
        return ZSubset("finite", frozenset(int(p) for p in primes))

    @staticmethod
    def cofinite(excluded: Iterable[int]) -> "ZSubset":
        return ZSubset("cofinite", frozenset(int(p) for p in excluded))

    # -- predicates ----------------------------------------------------------

    @property
    def is_whole(self) -> bool:
        return self.kind == "whole"

    @property
    def is_empty(self) -> bool:
        return self.kind == "finite" and not self.primes

    @property
    def contains_generic(self) -> bool:
        return self.kind == "whole"

    def contains(self, point) -> bool:
        pt = zpoint(point)
        if self.kind == "whole":
            return True
        if pt.is_generic:
            return False
        if self.kind == "finite":
            return pt.p in self.primes
        return pt.p not in self.primes

    def issubset(self, other: "ZSubset") -> bool:
        if other.kind == "whole":
            return True
        if self.kind == "whole":
            return False
        if self.kind == "finite":
            if other.kind == "finite":
                return self.primes <= other.primes
            return not (self.primes & other.primes)
        # cofinite self
        if other.kind == "finite":
            return False  # a cofinite set of maximals is infinite
        return other.primes <= self.primes

    # -- boolean algebra (within the maximal-only shapes) ---------------------

    def meet(self, other: "ZSubset") -> "ZSubset":
        if self.kind == "whole":
            return other
        if other.kind == "whole":
            return self
        if self.kind == "finite" and other.kind == "finite":
            return ZSubset.finite(self.primes & other.primes)
        if self.kind == "finite":
            return ZSubset.finite(self.primes - other.primes)
        if other.kind == "finite":
            return ZSubset.finite(other.primes - self.primes)
        return ZSubset.cofinite(self.primes | other.primes)

    def join(self, other: "ZSubset") -> "ZSubset":
        if self.kind == "whole" or other.kind == "whole":
            return ZSubset.whole()
        if self.kind == "finite" and other.kind == "finite":
            return ZSubset.finite(self.primes | other.primes)
        if self.kind == "cofinite" and other.kind == "cofinite":
            return ZSubset.cofinite(self.primes & other.primes)
        fin, cof = (self, other) if self.kind == "finite" else (other, self)
        return ZSubset.cofinite(cof.primes - fin.primes)

    def minus(self, other: "ZSubset") -> "ZSubset":
        """Set difference, staying among maximal ideals (whole \\ X drops 0)."""
        if other.kind == "whole":
            return ZSubset.empty()
        if self.kind == "whole":
            return ZSubset.cofinite(other.primes) if other.kind == "finite" else ZSubset.finite(other.primes)
        if self.kind == "finite":
            if other.kind == "finite":
                return ZSubset.finite(self.primes - other.primes)
            return ZSubset.finite(self.primes & other.primes)
        if other.kind == "finite":
            return ZSubset.cofinite(self.primes | other.primes)
        return ZSubset.finite(other.primes - self.primes)

    def __repr__(self):
        if self.kind == "whole":
            return "ZSubset.whole()"
        name = "finite" if self.kind == "finite" else "cofinite"
        return f"ZSubset.{name}({sorted(self.primes)!r})"

    def __str__(self):
        if self.kind == "whole":
            return "Spec(Z)"
        if self.kind == "finite":
            return "{" + ",".join(f"({p})" for p in sorted(self.primes)) + "}"
        return "maximals minus {" + ",".join(f"({p})" for p in sorted(self.primes)) + "}"

    def to_json(self) -> dict:
        if self.kind == "whole":
            return {"kind": "whole"}
        return {"kind": self.kind, "primes": sorted(self.primes)}


def subset_from_json(obj: dict, spectrum):
    return spectrum.subset_from_json(obj)


def _primes_from_json(obj: dict) -> list:
    # the constructors round each entry through int(), so outside input
    # is checked here: a list of JSON integers (long ones decoded already)
    primes = obj.get("primes", [])
    if not isinstance(primes, list):
        raise TypeError(f"subset primes must be a list, got {primes!r}")
    return [integer(p, "subset prime") for p in primes]


# ---------------------------------------------------------------------------
# finite samples of Spec(Z)


def fresh_prime(named) -> int:
    """The least prime not in ``named``.

    >>> fresh_prime({2, 3, 7})
    5
    """
    p = 2
    while p in named:
        p = next_prime(p)
    return p


def sample_points(Z: ZSubset, named=frozenset()) -> tuple[SpecZPoint, ...]:
    """Finitely many points of Z that stand for all of Z.

    In order: the generic point if Z is whole, every prime named by Z
    or by ``named`` that Z contains, and, unless Z is finite, the least
    prime named by neither.  Every prime named by neither lies in Z
    exactly when that fresh prime does, so a predicate that sees points
    only through Z and the named primes holds on Z exactly when it holds
    on the sample.

    >>> [str(pt) for pt in sample_points(ZSubset.cofinite([2]), {3, 5})]
    ['(3)', '(5)', '(7)']
    >>> [str(pt) for pt in sample_points(ZSubset.whole())]
    ['0', '(2)']
    """
    named = Z.primes.union(named)
    pts = [zpoint(GENERIC)] if Z.is_whole else []
    pts += [zpoint(p) for p in sorted(named) if Z.contains(p)]
    if Z.kind != "finite":
        pts.append(zpoint(fresh_prime(named)))
    return tuple(pts)


def _named_primes(named) -> frozenset[int]:
    # the primes among named primes or points (the generic point names none)
    return frozenset(zpoint(n).p for n in named) - {GENERIC}


# ---------------------------------------------------------------------------
# operations, over a model's finite sample


def specialization_closure(points, spectrum):
    """Smallest sp-subset containing the given points.

    >>> P = FinPoset("abc", [("a", "b"), ("b", "c")])
    >>> sorted(specialization_closure({"a"}, P).points)
    ['a', 'b', 'c']
    >>> specialization_closure({SpecZPoint(0)}, SPEC_Z)
    ZSubset.whole()
    """
    pts = [spectrum.check_point(p) for p in points]
    closure = [
        q for q in spectrum.sample(pts) if any(p == q or spectrum.lt(p, q) for p in pts)
    ]
    return spectrum.subset(closure, pts)


def immediate_generalizations(q, spectrum) -> frozenset:
    """The points covered by q: those maximal under q.

    >>> immediate_generalizations(SpecZPoint(2), SPEC_Z)
    frozenset({SpecZPoint(p=0)})
    """
    q = spectrum.check_point(q)
    return frozenset(p for p, qq in spectrum.cover_pairs([q]) if qq == q)


def is_open_closed(Z):
    """Is the sp-subset also stable under generalization?

    Returns ``(True, None)`` or ``(False, (q, p))`` where q lies in Z and
    its immediate generalization p does not.  Such subsets are exactly
    the unions of connected components of the spectrum.

    >>> is_open_closed(ZSubset.finite([2]))
    (False, (SpecZPoint(p=2), SpecZPoint(p=0)))
    """
    for p, q in Z.spectrum.cover_pairs(Z.primes):
        if Z.contains(q) and not Z.contains(p):
            return False, (q, p)
    return True, None


def connected_components(spectrum) -> list[frozenset]:
    """Components of the comparability graph of the finite sample.

    >>> P = FinPoset("abc", [("a", "b")])
    >>> sorted(sorted(c) for c in connected_components(P))
    [['a', 'b'], ['c']]
    >>> connected_components(SPEC_Z)
    [frozenset({SpecZPoint(p=0), SpecZPoint(p=2)})]
    """
    pts = spectrum.sample()
    parent = {p: p for p in pts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in spectrum.cover_pairs():
        parent[find(p)] = find(q)
    comps: dict = {}
    for p in pts:
        comps.setdefault(find(p), set()).add(p)
    return [frozenset(c) for c in comps.values()]


def is_connected(spectrum) -> bool:
    return len(connected_components(spectrum)) <= 1


# ---------------------------------------------------------------------------
# codimension functions


@dataclass(frozen=True)
class CodimFn:
    """A total integer-valued map on points, candidate codimension function.

    Over a finite poset the values are carried explicitly; over Spec(Z)
    two numbers suffice (one for the generic point, one shared by all
    maximal ideals).
    """

    spectrum: object
    values: tuple  # poset: tuple of (point, value); Spec(Z): (generic, maximal)

    @staticmethod
    def for_poset(spectrum: FinPoset, values: dict) -> "CodimFn":
        missing = [p for p in spectrum.points if p not in values]
        if missing:
            raise ValueError(f"codimension function not total, missing {missing!r}")
        return CodimFn(
            spectrum,
            tuple(sorted((p, integer(values[p], f"codimension of {p!r}")) for p in spectrum.points)),
        )

    @staticmethod
    def for_specz(generic_value: int, maximal_value: int) -> "CodimFn":
        return CodimFn(SPEC_Z, (int(generic_value), int(maximal_value)))

    def value(self, point) -> int:
        point = self.spectrum.check_point(point)
        if self.spectrum == SPEC_Z:
            g, m = self.values
            return g if point.is_generic else m
        return dict(self.values)[point]

    def min_value(self) -> int:
        return min(self.value(p) for p in self.spectrum.sample())

    def max_value(self) -> int:
        return max(self.value(p) for p in self.spectrum.sample())


def validate_codim_fn(d: CodimFn):
    """Check d(q) = d(p) + 1 across every covering pair.

    >>> P = FinPoset("ab", [("a", "b")])
    >>> validate_codim_fn(CodimFn.for_poset(P, {"a": 0, "b": 2}))
    (False, ('a', 'b'))
    """
    for p, q in d.spectrum.cover_pairs():
        if d.value(q) != d.value(p) + 1:
            return False, (p, q)
    return True, None


def krull_dimension(spectrum) -> int:
    """Length of the longest chain (number of strict inclusions).

    >>> krull_dimension(SPEC_Z)
    1
    """
    pts = spectrum.sample()
    depth: dict = {}

    def height(q) -> int:
        if q not in depth:
            depth[q] = max((1 + height(p) for p in pts if spectrum.lt(p, q)), default=0)
        return depth[q]

    return max((height(q) for q in pts), default=0)


def minimal_points(spectrum) -> frozenset:
    pts = spectrum.sample()
    return frozenset(p for p in pts if not any(spectrum.lt(q, p) for q in pts))


def all_up_sets(spectrum, cap: Optional[int] = None) -> list[PosetSubset]:
    """Every sp-subset of a finite poset (the lattice of up-sets).

    >>> P = FinPoset("ab", [("a", "b")])
    >>> sorted(str(u) for u in all_up_sets(P))
    ['{a,b}', '{b}', '{}']
    """
    pts = spectrum.points
    if cap is not None and 2 ** len(pts) > cap:
        raise ValueError(f"up-set enumeration over {len(pts)} points exceeds cap {cap}")
    out = []
    for mask in range(2 ** len(pts)):
        subset = frozenset(p for k, p in enumerate(pts) if mask >> k & 1)
        ok = all(
            q in subset
            for p in subset
            for q in spectrum.points
            if spectrum.lt(p, q)
        )
        if ok:
            out.append(PosetSubset(spectrum, subset))
    return out
