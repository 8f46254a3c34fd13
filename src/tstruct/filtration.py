"""Filtrations by supports and the weak Cousin condition.

A filtration by supports is a decreasing map j -> (sp-subset of the
spectrum).  We represent the eventually-constant ones: a constant tail
value for j < start, an explicit window of levels, and a constant head
value beyond (the head is empty for the filtrations "determined in an
interval", which are the ones with interesting truncation theory).

The weak Cousin condition asks that whenever q lies in level j, every
immediate generalization of q lies in level j - 1; the strong version
adds the converse on covering pairs.  These conditions govern exactly
when the associated truncation functors preserve finitely generated
homology, which is what the census and report machinery here feeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .jsonio import integer
from .spectrum import (
    CodimFn,
    FinPoset,
    PosetSubset,
    SPEC_Z,
    ZSubset,
    is_connected,
    is_open_closed,
    specialization_closure,
    subset_from_json,
    spectrum_from_json,
    validate_codim_fn,
)


@dataclass(frozen=True)
class SpFiltration:
    """An eventually-constant decreasing filtration by sp-subsets.

    ``tail`` is the value for j < start, ``levels[k]`` the value at
    start + k, ``head`` the value past the window.  Stored in canonical
    minimal-window form: no level equals the adjacent constant value.

    >>> f = canonical_filtration(SPEC_Z)
    >>> f.value(0), f.value(1)
    (ZSubset.whole(), ZSubset.finite([]))
    """

    spectrum: object
    tail: object
    start: int
    levels: tuple
    head: object

    def __post_init__(self):
        subsets = (self.tail, *self.levels, self.head)
        for s in subsets:
            if getattr(s, "spectrum", None) != self.spectrum:
                raise ValueError("level subset belongs to a different spectrum")
        prev = self.tail
        for s in (*self.levels, self.head):
            if not s.issubset(prev):
                raise ValueError(f"not decreasing: {s} after {prev}")
            prev = s
        # canonical minimal window
        levels = list(self.levels)
        start = self.start
        while levels and levels[0] == self.tail:
            levels.pop(0)
            start += 1
        while levels and levels[-1] == self.head:
            levels.pop()
        if not levels and self.tail == self.head:
            start = 0
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "start", start)

    # -- access ---------------------------------------------------------------

    def value(self, j: int):
        if j < self.start:
            return self.tail
        k = j - self.start
        if k < len(self.levels):
            return self.levels[k]
        return self.head

    @property
    def window_end(self) -> int:
        """Last explicit level index (start - 1 when the window is empty)."""
        return self.start + len(self.levels) - 1

    @property
    def is_constant(self) -> bool:
        return not self.levels and self.tail == self.head

    @property
    def is_finite(self) -> bool:
        """Determined in an interval, or constant (length-0) filtration."""
        return self.is_constant or self.head.is_empty

    def determined_interval(self) -> tuple[int, int]:
        """The interval [s, n] with value(j) = value(s) for j <= s, a strict
        drop after s, and value(n + 1) the first empty level."""
        if self.is_constant:
            raise ValueError("a constant filtration is not determined in an interval")
        if not self.head.is_empty:
            raise ValueError("filtration does not reach the empty set")
        s = self.start - 1
        n = self.window_end if self.levels else self.start - 1
        return s, n

    def length(self) -> int:
        """Number of truncation steps: 0 for constants, n - s + 1 otherwise."""
        if self.is_constant:
            return 0
        s, n = self.determined_interval()
        return n - s + 1

    def shift(self, k: int) -> "SpFiltration":
        """The translate with value(j) = original value(j - k)."""
        return SpFiltration(self.spectrum, self.tail, self.start + k, self.levels, self.head)

    def check_range(self) -> range:
        """Indices j that see every transition plus both constant plateaus."""
        return range(self.start - 1, self.window_end + 3)

    def all_level_values(self) -> list:
        return [self.tail, *self.levels, self.head]

    def mentioned_primes(self) -> frozenset[int]:
        """Primes named in finite/cofinite level data (none over a poset)."""
        out: set[int] = set()
        for s in self.all_level_values():
            out |= set(s.primes)
        return frozenset(out)

    def __str__(self):
        if self.is_constant:
            return f"constant {self.tail}"
        rng = ", ".join(
            f"{j}: {self.value(j)}" for j in range(self.start - 1, self.window_end + 2)
        )
        return f"filtration[{rng}, then {self.head}]"

    def to_json(self) -> dict:
        return {
            "spectrum": self.spectrum.to_json(),
            "tail": self.tail.to_json(),
            "window": {"start": self.start, "end": self.window_end},
            "levels": [s.to_json() for s in self.levels],
            "head": self.head.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "SpFiltration":
        spectrum = spectrum_from_json(obj["spectrum"])
        return SpFiltration(
            spectrum,
            subset_from_json(obj["tail"], spectrum),
            integer(obj["window"]["start"], "window start"),
            tuple(subset_from_json(s, spectrum) for s in obj.get("levels", ())),
            subset_from_json(obj["head"], spectrum),
        )


# -- constructors ------------------------------------------------------------


def constant_filtration(spectrum, value) -> SpFiltration:
    return SpFiltration(spectrum, value, 0, (), value)


def canonical_filtration(spectrum) -> SpFiltration:
    """Whole spectrum for j <= 0, empty after: the standard aisle at 0."""
    return SpFiltration(spectrum, spectrum.whole(), 1, (), spectrum.empty())


def step_filtration(spectrum, i: int, Z) -> SpFiltration:
    """Z for j <= i, empty after (a length-1 filtration when Z is nonempty)."""
    return SpFiltration(spectrum, Z, i + 1, (), spectrum.empty())


def from_values(spectrum, values: dict, tail, head) -> SpFiltration:
    """Filtration from an explicit window map {j: subset}."""
    if not values:
        return SpFiltration(spectrum, tail, 0, (), head)
    lo, hi = min(values), max(values)
    levels = []
    for j in range(lo, hi + 1):
        if j not in values:
            raise ValueError(f"window map misses level {j}")
        levels.append(values[j])
    return SpFiltration(spectrum, tail, lo, tuple(levels), head)


# ---------------------------------------------------------------------------
# Cousin conditions


@dataclass(frozen=True)
class CousinReport:
    holds: bool
    witnesses: tuple  # ((j, q, p), ...) with q in level j, p not in level j-1

    def __bool__(self):
        return self.holds


def _cousin(filtration: SpFiltration, want_converse: bool) -> CousinReport:
    witnesses = []
    pairs = filtration.spectrum.cover_pairs(filtration.mentioned_primes())
    for j in filtration.check_range():
        lvl, prev = filtration.value(j), filtration.value(j - 1)
        for p, q in pairs:
            if lvl.contains(q) and not prev.contains(p):
                witnesses.append((j, q, p))
            elif want_converse and prev.contains(p) and not lvl.contains(q):
                witnesses.append((j, q, p))
    return CousinReport(not witnesses, tuple(witnesses))


def weak_cousin(filtration: SpFiltration) -> CousinReport:
    """Does every point of level j have all immediate generalizations in
    level j - 1?

    >>> f = from_values(SPEC_Z, {0: ZSubset.finite([2]), 1: ZSubset.finite([2])},
    ...                 ZSubset.finite([2]), ZSubset.empty())
    >>> weak_cousin(f).witnesses[0]
    (1, SpecZPoint(p=2), SpecZPoint(p=0))

    (At level 1 the ideal (2) is present but the generic point is missing
    from level 0.)
    """
    return _cousin(filtration, want_converse=False)


def strong_cousin(filtration: SpFiltration) -> CousinReport:
    """Weak Cousin plus the converse implication on covering pairs."""
    return _cousin(filtration, want_converse=True)


# ---------------------------------------------------------------------------
# localization


def localize_spectrum(spectrum, q):
    """The sub-spectrum of generalizations of q, as a finite poset named
    by the printed points, with a membership predicate for transporting
    subsets."""
    q = spectrum.check_point(q)
    keep = [p for p in spectrum.sample([q]) if p == q or spectrum.lt(p, q)]
    sub = FinPoset(
        [str(p) for p in keep],
        [(str(a), str(b)) for a, b in spectrum.cover_pairs([q]) if a in keep and b in keep],
    )
    return sub, lambda level: frozenset(str(p) for p in keep if level.contains(p))


def localize(filtration: SpFiltration, q) -> SpFiltration:
    """Restrict a filtration to the generalizations of q, intersecting
    every level with the localized spectrum.

    >>> f = canonical_filtration(SPEC_Z)
    >>> g = localize(f, 2)
    >>> sorted(g.value(0).points), sorted(g.value(1).points)
    (['(2)', '0'], [])
    """
    sub, transport = localize_spectrum(filtration.spectrum, q)
    return SpFiltration(
        sub,
        PosetSubset(sub, transport(filtration.tail)),
        filtration.start,
        tuple(PosetSubset(sub, transport(s)) for s in filtration.levels),
        PosetSubset(sub, transport(filtration.head)),
    )


# ---------------------------------------------------------------------------
# Cohen-Macaulay and dual filtrations


def cm_filtration(codim: CodimFn) -> SpFiltration:
    """Level i = {p : codim(p) > i}; satisfies the strong Cousin condition.

    >>> f = cm_filtration(CodimFn.for_specz(0, 1))
    >>> f.value(-1), f.value(0), f.value(1)
    (ZSubset.whole(), ZSubset.cofinite([]), ZSubset.finite([]))
    """
    ok, witness = validate_codim_fn(codim)
    if not ok:
        raise ValueError(f"not a codimension function, witness {witness!r}")
    spec = codim.spectrum
    lo, hi = codim.min_value(), codim.max_value()
    levels = tuple(
        spec.subset(p for p in spec.sample() if codim.value(p) > i) for i in range(lo, hi)
    )
    return SpFiltration(spec, spec.whole(), lo, levels, spec.empty())


def dual_filtration(filtration: SpFiltration, codim: CodimFn) -> SpFiltration:
    """The dual of a finite filtration with respect to a codimension
    function: level k collects the points q with

        V(q) /\\ (level i)  contained in  (CM level k + i)   for all i.

    For a one-step filtration this is the closed-form dual of the
    corresponding local-cohomology aisle; for longer windows the levels
    are intersected pointwise.  The orthogonality machinery in the
    duality module validates the formula before results are trusted.

    >>> dual_filtration(canonical_filtration(SPEC_Z), CodimFn.for_specz(0, 1)) \\
    ...     == cm_filtration(CodimFn.for_specz(0, 1))
    True
    """
    if not filtration.is_finite:
        raise ValueError("dual filtration needs a finite filtration")
    ok, witness = validate_codim_fn(codim)
    if not ok:
        raise ValueError(f"not a codimension function, witness {witness!r}")
    spec = filtration.spectrum
    cm = cm_filtration(codim)
    named = filtration.mentioned_primes()
    pts = spec.sample(named)
    # points whose closure misses the tail survive at every k
    head = spec.subset(
        (q for q in pts if specialization_closure([q], spec).meet(filtration.tail).is_empty),
        named,
    )
    if filtration.is_constant:
        return constant_filtration(spec, head)

    s, n = filtration.determined_interval()
    lo, hi = codim.min_value(), codim.max_value()
    kmin = lo - n - 1           # one below: level there is provably whole
    kmax = hi - s               # from here on: level equals the head below

    def passes(q, k):
        closure = specialization_closure([q], spec)
        for i in range(s, n + 1):
            if not closure.meet(filtration.value(i)).issubset(cm.value(k + i)):
                return False
        return True

    levels = tuple(
        spec.subset((q for q in pts if passes(q, k)), named) for k in range(kmin, kmax + 1)
    )
    return SpFiltration(spec, spec.whole(), kmin, levels, head)


# ---------------------------------------------------------------------------
# stabilization / discreteness


@dataclass(frozen=True)
class StabilizationReport:
    stable_from: int
    bottom_value: object
    bottom_open_closed: bool
    bottom_witness: Optional[tuple]
    intersection: object
    intersection_open_closed: bool
    separated: bool
    eventually_empty: bool
    weak_cousin_holds: bool


def stabilization_report(filtration: SpFiltration) -> StabilizationReport:
    """Where the filtration stabilizes and how its limits sit topologically.

    For a weak-Cousin filtration the bottom value and the intersection
    are open and closed; on a connected spectrum a nonconstant weak-Cousin
    filtration must bottom out at the whole space and die at the top
    (raises if that provable combination fails, since it would mean a
    broken engine).
    """
    wc = weak_cousin(filtration).holds
    bottom = filtration.tail
    inter = filtration.head  # decreasing and eventually constant
    b_oc, b_w = is_open_closed(bottom)
    i_oc, _ = is_open_closed(inter)
    report = StabilizationReport(
        stable_from=filtration.start - 1,
        bottom_value=bottom,
        bottom_open_closed=b_oc,
        bottom_witness=b_w,
        intersection=inter,
        intersection_open_closed=i_oc,
        separated=inter.is_empty,
        eventually_empty=filtration.head.is_empty,
        weak_cousin_holds=wc,
    )
    if wc:
        if not (b_oc and i_oc):
            raise ArithmeticError(
                "weak-Cousin filtration with a bottom or intersection that is "
                "not open-closed: engine bug"
            )
        if is_connected(filtration.spectrum) and not filtration.is_constant:
            if not bottom.is_whole or not filtration.head.is_empty:
                raise ArithmeticError(
                    "nonconstant weak-Cousin filtration on a connected spectrum "
                    "must run from the whole space to the empty set"
                )
    return report


def bousfield_class(filtration: SpFiltration):
    """For a constant filtration, its value and whether that value is
    open-closed (the case restricting to finitely generated objects);
    None otherwise."""
    if not filtration.is_constant:
        return None
    oc, _ = is_open_closed(filtration.tail)
    return filtration.tail, oc


# ---------------------------------------------------------------------------
# lattice operations


def meet(f: SpFiltration, g: SpFiltration) -> SpFiltration:
    """Pointwise intersection of levels (the aisle of the meet is the
    intersection of the aisles).

    >>> f = canonical_filtration(SPEC_Z)
    >>> meet(f, f.shift(-1)) == f.shift(-1)
    True
    """
    if f.spectrum != g.spectrum:
        raise ValueError("filtrations live on different spectra")
    lo = min(f.start, g.start)
    hi = max(f.window_end, g.window_end)
    levels = tuple(f.value(j).meet(g.value(j)) for j in range(lo, hi + 1))
    return SpFiltration(
        f.spectrum, f.tail.meet(g.tail), lo, levels, f.head.meet(g.head)
    )


def stalk_in_aisle(filtration: SpFiltration, point, i: int) -> bool:
    """Is the cyclic generator at point, placed in degree i, in the aisle?

    By the classification of compactly generated aisles this is exactly
    the support inclusion V(point) in level i.
    """
    closure = specialization_closure([point], filtration.spectrum)
    return closure.issubset(filtration.value(i))


def read_back(filtration: SpFiltration) -> bool:
    """Classification round trip: recovering each level from aisle
    membership of stalk generators returns the filtration unchanged."""
    pts = filtration.spectrum.sample(filtration.mentioned_primes())
    for j in filtration.check_range():
        lvl = filtration.value(j)
        for p in pts:
            if stalk_in_aisle(filtration, p, j) != lvl.contains(p):
                return False
    return True


# ---------------------------------------------------------------------------
# census enumeration


def _pair_ok(pairs, prev, lvl) -> bool:
    # weak Cousin on one transition: q in lvl forces p in prev
    return all(not lvl.contains(q) or prev.contains(p) for p, q in pairs)


def _walk_census(spectrum, window, universe, cap, step_ok) -> list[SpFiltration]:
    """The constants v with ``step_ok(v, v)`` and the decreasing window
    chains with constant tail and empty head whose first level v passes
    ``step_ok(v, v)`` and whose every transition passes
    ``step_ok(prev, lvl)``; chains are pruned as they grow.  Duplicates
    collapse under canonicalization."""
    a, b = window
    if b < a:
        raise ValueError("empty census window")
    values = spectrum.census_levels(universe, cap)
    if len(values) ** (b - a + 1) > cap:
        raise ValueError(
            f"census of size {len(values)}^{b - a + 1} exceeds cap {cap}"
        )
    empty = spectrum.empty()
    out: dict = {}

    def add(f: SpFiltration):
        out[str(f.to_json())] = f

    for v in values:
        if step_ok(v, v):
            add(constant_filtration(spectrum, v))

    def extend(chain):
        if len(chain) == b - a + 1:
            add(from_values(spectrum, dict(enumerate(chain, a)), chain[0], empty))
            return
        for v in values:
            if not chain:
                if step_ok(v, v):
                    extend([v])
            elif v.issubset(chain[-1]) and step_ok(chain[-1], v):
                extend(chain + [v])

    extend([])
    return [out[k] for k in sorted(out)]


def enumerate_census_class(
    spectrum,
    window: tuple[int, int],
    universe=None,
    cap: int = 2_000_000,
) -> list[SpFiltration]:
    """Every filtration of the census representation class, Cousin or not:
    constants plus the decreasing window chains with constant tail and
    empty head.  The weak-Cousin census is the filtered sublist."""
    return _walk_census(spectrum, window, universe, cap, lambda prev, lvl: True)


def enumerate_weak_cousin(
    spectrum,
    window: tuple[int, int],
    universe=None,
    cap: int = 2_000_000,
) -> list[SpFiltration]:
    """The census: every weak-Cousin filtration in the representation
    class "constant before the window, empty after it, or constant".

    The census class walk with inline Cousin pruning: a constant is kept
    exactly when its value is open-closed, a chain when its first level
    is and every transition passes.

    >>> P = FinPoset("pm", [("p", "m")])
    >>> len(enumerate_weak_cousin(P, (0, 1)))
    5
    """
    pairs = spectrum.cover_pairs({int(p) for p in universe or ()})
    census = _walk_census(
        spectrum, window, universe, cap, lambda prev, lvl: _pair_ok(pairs, prev, lvl)
    )
    for f in census:
        assert weak_cousin(f).holds
    return census
