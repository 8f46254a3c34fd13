"""Elementary Z-modules: the coefficient objects of the derived engine.

An elementary module is a finite formal direct sum of four kinds of
atoms:

* ``Z^r``                      -- free of finite rank,
* ``Z[S^-1]^r``                -- free over the localization inverting a
                                  finite or cofinite set S of primes,
* ``(Z/p^e)^m``                -- finite p-power torsion,
* ``(sum_{p in P} Z(p^oo))^m`` -- Pruefer (divisible p-torsion) summed
                                  over a finite or cofinite prime set P.

This class of modules is closed under every operation the truncation
engine performs: torsion part, divisible part, localization, quotients
by torsion, and the canonical extensions appearing in local-cohomology
triangles.  Finitely generated modules are exactly the sums of free and
finite-torsion atoms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jsonio import integer
from .spectrum import SPEC_Z, ZSubset, factorint, subset_from_json, zpoint


def _set_key(s: ZSubset):
    return (s.kind, tuple(sorted(s.primes)))


def _merge_sets(entries):
    # entries: iterable of (ZSubset, int); merge equal sets, drop zeros/empties
    acc: dict = {}
    for s, n in entries:
        if n == 0 or s.is_empty:
            continue
        if n < 0:
            raise ValueError("negative multiplicity")
        key = _set_key(s)
        acc[key] = (s, acc.get(key, (s, 0))[1] + n)
    return tuple(sorted(acc.values(), key=lambda e: _set_key(e[0])))


def _merge_torsion(entries):
    acc: dict = {}
    for p, e, m in entries:
        if m == 0:
            continue
        if m < 0 or e < 1:
            raise ValueError("bad torsion entry")
        acc[(p, e)] = acc.get((p, e), 0) + m
    return tuple((p, e, m) for (p, e), m in sorted(acc.items()))


def _sum_atoms(a: tuple, b: tuple, merge) -> tuple:
    # a and b are canonical: an empty side leaves the other one as it is
    if not a:
        return b
    if not b:
        return a
    return merge(a + b)


_WHOLE_SET = "localization/Pruefer sets are sets of maximal ideals"


def _one_set(s: ZSubset, n: int) -> tuple:
    # the single (set, multiplicity) entry of a named constructor; n != 0
    if n < 0:
        raise ValueError("negative multiplicity")
    if s.is_whole:
        raise ValueError(_WHOLE_SET)
    return ((s, n),)


@dataclass(frozen=True)
class ElementaryModule:
    """A finite direct sum of free, localized, torsion and Pruefer atoms.

    The atom tuples are canonical: equal keys merged, zero entries
    dropped, sorted.  The named constructors and ``+`` build them that way
    directly; the public constructor canonicalizes and validates outside
    input (JSON, tests) on every call.
    """

    free_rank: int = 0
    localized: tuple = ()  # ((ZSubset, rank), ...) with nonempty sets
    torsion: tuple = ()    # ((p, e, mult), ...)
    prufer: tuple = ()     # ((ZSubset, mult), ...) with nonempty sets

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "localized", _merge_sets(self.localized))
        object.__setattr__(self, "torsion", _merge_torsion(self.torsion))
        object.__setattr__(self, "prufer", _merge_sets(self.prufer))
        for s, _ in self.localized + self.prufer:
            if s.is_whole:
                raise ValueError(_WHOLE_SET)

    @staticmethod
    def _canonical(free_rank: int, localized: tuple, torsion: tuple, prufer: tuple):
        """The module of atom tuples that are already canonical and valid.
        Nothing is re-merged or re-checked."""
        obj = object.__new__(ElementaryModule)
        object.__setattr__(obj, "free_rank", free_rank)
        object.__setattr__(obj, "localized", localized)
        object.__setattr__(obj, "torsion", torsion)
        object.__setattr__(obj, "prufer", prufer)
        return obj

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "ElementaryModule":
        """The interned zero module (values are frozen, so one suffices).

        >>> ElementaryModule.zero() is ElementaryModule.zero()
        True
        """
        return _ZERO

    @staticmethod
    def free(rank: int) -> "ElementaryModule":
        if rank < 0:
            raise ValueError("negative rank")
        if rank == 0:
            return _ZERO
        return ElementaryModule._canonical(rank, (), (), ())

    @staticmethod
    def localized_free(inverted: ZSubset, rank: int) -> "ElementaryModule":
        """Z with the primes of ``inverted`` made invertible, rank copies.

        Inverting nothing is plain Z:

        >>> ElementaryModule.localized_free(ZSubset.empty(), 2)
        ElementaryModule.free(2)
        """
        if rank == 0:
            return _ZERO
        if inverted.is_empty:
            return ElementaryModule.free(rank)
        return ElementaryModule._canonical(0, _one_set(inverted, rank), (), ())

    @staticmethod
    def cyclic_torsion(p: int, e: int, mult: int = 1) -> "ElementaryModule":
        if mult == 0:
            return _ZERO
        if mult < 0 or e < 1:
            raise ValueError("bad torsion entry")
        return ElementaryModule._canonical(0, (), ((p, e, mult),), ())

    @staticmethod
    def prufer_sum(primes: ZSubset, mult: int = 1) -> "ElementaryModule":
        if mult == 0 or primes.is_empty:
            return _ZERO
        return ElementaryModule._canonical(0, (), (), _one_set(primes, mult))

    @staticmethod
    def cyclic(n: int) -> "ElementaryModule":
        """Z/n, and Z itself for n = 0.

        >>> ElementaryModule.cyclic(-12)
        ElementaryModule(torsion=((2, 2, 1), (3, 1, 1)))
        >>> ElementaryModule.cyclic(0), ElementaryModule.cyclic(1)
        (ElementaryModule.free(1), ElementaryModule.zero())
        """
        if n == 0:
            return ElementaryModule.free(1)
        if n in (1, -1):
            return _ZERO
        # factorint lists distinct primes in ascending order: already canonical
        torsion = tuple((p, e, 1) for p, e in factorint(n).items())
        return ElementaryModule._canonical(0, (), torsion, ())

    # -- structure ------------------------------------------------------------

    def __add__(self, other: "ElementaryModule") -> "ElementaryModule":
        """Direct sum; equal atoms merge into one entry.

        >>> ElementaryModule.cyclic_torsion(2, 1) + ElementaryModule.cyclic_torsion(2, 1)
        ElementaryModule(torsion=((2, 1, 2),))
        """
        # both sides are already canonical, so a zero summand changes nothing
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        return ElementaryModule._canonical(
            self.free_rank + other.free_rank,
            _sum_atoms(self.localized, other.localized, _merge_sets),
            _sum_atoms(self.torsion, other.torsion, _merge_torsion),
            _sum_atoms(self.prufer, other.prufer, _merge_sets),
        )

    @property
    def is_zero(self) -> bool:
        return not (self.free_rank or self.localized or self.torsion or self.prufer)

    @property
    def is_fg(self) -> bool:
        """Finitely generated over Z: no Pruefer part, no proper localization."""
        return not self.localized and not self.prufer

    @property
    def rational_rank(self) -> int:
        return self.free_rank + sum(r for _, r in self.localized)

    def torsion_primes(self) -> frozenset[int]:
        return frozenset(p for p, _, _ in self.torsion)

    def mentioned_primes(self) -> frozenset[int]:
        """Every prime named anywhere in the atom data."""
        out = set(p for p, _, _ in self.torsion)
        for s, _ in self.localized + self.prufer:
            out |= s.primes
        return frozenset(out)

    # -- support ---------------------------------------------------------------

    def support(self):
        """Support as (contains_generic, set-of-maximals).

        The support of a localization is not specialization-stable, so the
        result is a plain pair rather than an sp-subset:

        >>> ElementaryModule.localized_free(ZSubset.finite([2]), 1).support()
        (True, ZSubset.cofinite([2]))
        """
        generic = self.free_rank > 0 or bool(self.localized)
        maximals = ZSubset.empty()
        if self.free_rank > 0:
            maximals = ZSubset.cofinite([])
        for s, _ in self.localized:
            maximals = maximals.join(ZSubset.cofinite([]).minus(s))
        for p, _, _ in self.torsion:
            maximals = maximals.join(ZSubset.finite([p]))
        for s, _ in self.prufer:
            maximals = maximals.join(s)
        return generic, maximals

    def support_in(self, Z: ZSubset) -> bool:
        """Is the support contained in the sp-subset Z?"""
        generic, maximals = self.support()
        if generic and not Z.is_whole:
            return False
        return maximals.issubset(Z if not Z.is_whole else ZSubset.cofinite([]))

    def __repr__(self):
        if self.is_zero:
            return "ElementaryModule.zero()"
        parts = []
        if not self.localized and not self.torsion and not self.prufer:
            return f"ElementaryModule.free({self.free_rank})"
        if self.free_rank:
            parts.append(f"free_rank={self.free_rank}")
        if self.localized:
            parts.append(f"localized={self.localized!r}")
        if self.torsion:
            parts.append(f"torsion={self.torsion!r}")
        if self.prufer:
            parts.append(f"prufer={self.prufer!r}")
        return "ElementaryModule(" + ", ".join(parts) + ")"

    def __str__(self):
        if self.is_zero:
            return "0"
        bits = []
        if self.free_rank:
            bits.append("Z" + (f"^{self.free_rank}" if self.free_rank > 1 else ""))
        for s, r in self.localized:
            if s.kind == "cofinite" and not s.primes:
                base = "Q"
            elif s.kind == "finite":
                base = "Z[1/" + "*".join(str(p) for p in sorted(s.primes)) + "]"
            else:
                base = f"Z[inv {s}]"
            bits.append(base + (f"^{r}" if r > 1 else ""))
        for p, e, m in self.torsion:
            bits.append(f"Z/{p**e}" + (f"^{m}" if m > 1 else ""))
        for s, m in self.prufer:
            if s.kind == "finite":
                base = "+".join(f"Z({p}^oo)" for p in sorted(s.primes))
                if len(s.primes) > 1:
                    base = "(" + base + ")"
            else:
                base = f"Pruefer[{s}]"
            bits.append(base + (f"^{m}" if m > 1 else ""))
        return " + ".join(bits)

    # -- JSON -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "free": self.free_rank,
            "localized": [{"inverted": s.to_json(), "rank": r} for s, r in self.localized],
            "torsion": [[p, e, m] for p, e, m in self.torsion],
            "prufer": [{"primes": s.to_json(), "mult": m} for s, m in self.prufer],
        }

    @staticmethod
    def from_json(obj: dict) -> "ElementaryModule":
        """Decode and check outside input: every count an integer, every
        torsion prime a prime number, every exponent at least 1."""
        return ElementaryModule(
            integer(obj.get("free", 0), "free rank"),
            tuple(
                (subset_from_json(e["inverted"], SPEC_Z), integer(e["rank"], "rank"))
                for e in obj.get("localized", ())
            ),
            tuple(_torsion_from_json(t) for t in obj.get("torsion", ())),
            tuple(
                (subset_from_json(e["primes"], SPEC_Z), integer(e["mult"], "multiplicity"))
                for e in obj.get("prufer", ())
            ),
        )


def _torsion_from_json(entry) -> tuple:
    p, e, m = entry
    if zpoint(integer(p, "torsion prime")).is_generic:
        raise ValueError("a torsion prime must be a prime number, got 0")
    if integer(e, "torsion exponent") < 1:
        raise ValueError(f"a torsion exponent must be at least 1, got {e}")
    return p, e, integer(m, "multiplicity")


_ZERO = ElementaryModule()
