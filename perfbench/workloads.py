"""The benchmark workloads: seeded inputs, cases and their verdicts.

Inputs come only from the public ``tstruct.corpus`` generators and the
census enumerators of ``tstruct.filtration``.  A workload's inputs are a
list of passes; a pass is a list of cases, and a case is a check
function with its arguments that runs the program on one unit of work
and returns whether every verdict it produced was right.  Check
functions reach the package through module attributes at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from tstruct import cech, corpus, derived, filtration
from tstruct.spectrum import SPEC_Z, ZSubset

# Frozen workload constants.  The input digests in frozen.json cover
# everything generated from them, so a change here or in corpus shows.
DEFAULT_SEED = 987654321
WINDOW = (-3, 3)
UNIVERSE = (2, 3, 5)
CENSUS_CAP = 10_000_000
ORTHO_WINDOW = (-4, 4)
GATE_POOL = 500  # complexes per acceptance-gate run; sets the witness share

# pass sizes: a pass takes a few seconds on a 2-core host, so a run
# completes several whole passes; the passes generated cover a run of
# the seed code with room to spare, and a faster program cycles them
ORACLE_COMPLEXES = 25
ORACLE_PASSES = 16
SUFFICIENCY_OBJECTS = 60
SUFFICIENCY_PASSES = 24
FRESH_PAIRS = 150
FRESH_PASSES = 30
MAX_REDRAWS = 10_000


@dataclass
class Inputs:
    passes: list  # [[(check, args), ...], ...]
    engine_pairs: list  # (filtration, object) pairs of the first pass
    properties: dict  # what drives the layers, for the report


# ---------------------------------------------------------------------------
# checks: one per kind of case


def oracle_rgamma(Z, X) -> bool:
    return cech.validate_rgamma(Z, X).ok


def oracle_rq(Z, X) -> bool:
    return cech.validate_rq(Z, X).ok


def oracle_tau(f, F) -> bool:
    return cech.validate_tau_filtration(f, F).ok


def sufficiency(f, X) -> bool:
    """A weak-Cousin truncation of an f.g. object keeps the whole
    truncation contract: determinate, finitely generated vertices, lower
    vertex in the aisle, upper vertex in the co-aisle and orthogonal."""
    res = derived.tau_filtration(f, X)
    return (
        res.determinate
        and res.lower.is_determinate
        and res.upper.is_determinate
        and res.lower.is_fg
        and res.upper.is_fg
        and derived.in_aisle(f, res.lower)
        and derived.in_coaisle(f, res.upper)
        and derived.orthogonality_check(f, res.upper, ORTHO_WINDOW).holds
    )


def fresh(f, F, weak_cousin: bool) -> bool:
    """Truncation, orthogonality of the upper vertex and oracle
    validation; a weak-Cousin filtration keeps f.g. input f.g."""
    res = derived.tau_filtration(f, F)
    if not derived.orthogonality_check(f, res.upper, ORTHO_WINDOW).holds:
        return False
    if weak_cousin and F.is_fg and not (res.lower.is_fg and res.upper.is_fg):
        return False
    return cech.validate_tau_filtration(f, F).ok


# ---------------------------------------------------------------------------
# inputs


def _census():
    return filtration.enumerate_weak_cousin(
        SPEC_Z, WINDOW, universe=UNIVERSE, cap=CENSUS_CAP
    )


def _census_class():
    return filtration.enumerate_census_class(
        SPEC_Z, WINDOW, universe=UNIVERSE, cap=CENSUS_CAP
    )


def _fg_object(rng):
    return derived.from_free_complex(corpus.random_free_complex(rng))


def _atom_mix(objects) -> dict:
    mix = {"free": 0, "torsion": 0, "localized": 0, "prufer": 0}
    for F in objects:
        for _, E in F.graded:
            mix["free"] += E.free_rank > 0
            mix["torsion"] += len(E.torsion)
            mix["localized"] += len(E.localized)
            mix["prufer"] += len(E.prufer)
    return mix


def _object_properties(objects) -> dict:
    return {
        "objects": len(objects),
        "objects_distinct": len(set(objects)),
        "objects_non_fg": sum(not F.is_fg for F in objects),
        "atom_mix": _atom_mix(objects),
    }


def build_oracle_agreement(seed: int) -> Inputs:
    """Per pass: rgamma and rq validation of every complex at every
    finite census level and the whole spectrum, composed-truncation
    validation of every (census filtration, object) pair, and a slice of
    the Cousin-violator witnesses in the gate's proportion."""
    census = _census()
    violators = []
    for f in _census_class():
        rep = filtration.weak_cousin(f)
        if not rep.holds:
            j = rep.witnesses[0][0]
            violators.append((f, derived.FormalObject.free_stalk(1, j - 1)))
    levels = sorted(
        {lvl for f in census for lvl in f.all_level_values() if not lvl.is_whole},
        key=str,
    ) + [ZSubset.whole()]
    rng = corpus.rng_from_seed(seed)
    rng.shuffle(violators)
    per_pass = math.ceil(len(violators) * ORACLE_COMPLEXES / GATE_POOL)
    passes, complexes, objects = [], [], []
    for k in range(ORACLE_PASSES):
        pool = [corpus.random_free_complex(rng) for _ in range(ORACLE_COMPLEXES)]
        pool_objects = [derived.from_free_complex(X) for X in pool]
        start = k * per_pass
        witnesses = [violators[(start + i) % len(violators)] for i in range(per_pass)]
        cases = []
        for X in pool:
            for Z in levels:
                cases.append((oracle_rgamma, (Z, X)))
                cases.append((oracle_rq, (Z, X)))
        cases += [(oracle_tau, (f, F)) for F in pool_objects for f in census]
        cases += [(oracle_tau, w) for w in witnesses]
        passes.append(cases)
        complexes += pool
        objects += pool_objects
    first = passes[0]
    return Inputs(
        passes,
        [args for check, args in first if check is oracle_tau],
        {
            "levels": len(levels),
            "census": len(census),
            "violators": len(violators),
            "witnesses_per_pass": per_pass,
            "cases_per_pass": len(first),
            "complexes": len(complexes),
            "complexes_distinct": len(set(complexes)),
            **_object_properties(objects),
        },
    )


def build_cousin_sufficiency(seed: int) -> Inputs:
    """Per pass: every (weak-Cousin census filtration, pool object) pair,
    engine only."""
    census = _census()
    rng = corpus.rng_from_seed(seed)
    passes, objects = [], []
    for _ in range(SUFFICIENCY_PASSES):
        pool = [_fg_object(rng) for _ in range(SUFFICIENCY_OBJECTS)]
        passes.append([(sufficiency, (f, X)) for f in census for X in pool])
        objects += pool
    return Inputs(
        passes,
        [args for _, args in passes[0]],
        {"census": len(census), **_object_properties(objects)},
    )


def build_fresh_objects(seed: int) -> Inputs:
    """A stream of distinct (filtration, object) pairs, each used once.
    Filtrations come from the whole census class, Cousin violators
    included; objects alternate between the homology of a random free
    complex and a random formal object with localized and Pruefer atoms.
    No object repeats within a pass, so the oracle caches, cleared
    before each pass, never see one twice."""
    klass = _census_class()
    is_cousin = [filtration.weak_cousin(f).holds for f in klass]
    rng = corpus.rng_from_seed(seed)
    pairs = set()
    passes, objects, violators = [], [], 0
    for _ in range(FRESH_PASSES):
        cases, seen = [], set()
        for k in range(FRESH_PAIRS):
            draw = _fg_object if k % 2 == 0 else corpus.random_formal_object
            for _ in range(MAX_REDRAWS):
                F, i = draw(rng), rng.randrange(len(klass))
                if F not in seen and (i, F) not in pairs:
                    break
            else:
                raise RuntimeError("object generator ran out of distinct objects")
            seen.add(F)
            pairs.add((i, F))
            cases.append((fresh, (klass[i], F, is_cousin[i])))
            objects.append(F)
            violators += not is_cousin[i]
        passes.append(cases)
    return Inputs(
        passes,
        [args[:2] for _, args in passes[0]],
        {
            "census_class": len(klass),
            "pairs": len(objects),
            "violator_share": violators / len(objects),
            **_object_properties(objects),
        },
    )


WORKLOADS = {
    "oracle-agreement": build_oracle_agreement,
    "cousin-sufficiency": build_cousin_sufficiency,
    "fresh-objects": build_fresh_objects,
}


# ---------------------------------------------------------------------------
# digests


def _freeze(value, memo):
    # the memo holds the value too, so that its id is not reused
    key = id(value)
    if key not in memo:
        if hasattr(value, "to_json"):
            memo[key] = (value, json.dumps(value.to_json(), sort_keys=True))
        else:
            memo[key] = (value, json.dumps(value))
    return memo[key][1]


def inputs_digest(inputs: Inputs) -> str:
    """SHA-256 over every case of every pass, in order."""
    h = hashlib.sha256()
    memo = {}
    for cases in inputs.passes:
        for check, args in cases:
            h.update(check.__name__.encode())
            for a in args:
                h.update(_freeze(a, memo).encode())
            h.update(b"\n")
    return h.hexdigest()


def outputs_digest(inputs: Inputs) -> str:
    """SHA-256 over both truncation vertices of every engine pair."""
    h = hashlib.sha256()
    for f, F in inputs.engine_pairs:
        res = derived.tau_filtration(f, F)
        h.update(json.dumps([res.lower.to_json(), res.upper.to_json()], sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
