"""Batch command-line interface.

Every subcommand reads and writes JSON (stdin/stdout or files), output
is deterministic for a fixed seed, and exit codes follow the usual
convention: 0 success or pass, 1 property failure, 2 usage error or
malformed input.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import jsonio, suites
from .corpus import DEFAULT_SEED
from .derived import (
    FormalObject,
    from_free_complex,
    in_aisle,
    in_coaisle,
    tau_filtration,
)
from .duality import (
    DUALIZING,
    cm_membership,
    kashiwara1_predicate,
    kashiwara2_predicate,
)
from .filtration import (
    SpFiltration,
    cm_filtration,
    dual_filtration,
    enumerate_weak_cousin,
    localize,
    strong_cousin,
    weak_cousin,
)
from .spectrum import (
    SPEC_Z,
    CodimFn,
    FinPoset,
    ZSubset,
    spectrum_from_json,
    subset_from_json,
)
from .zmodules import FreeComplex

BUILTIN_SPECTRA = {
    "specz": lambda: SPEC_Z,
    "two-chain": lambda: FinPoset(["p", "m"], [("p", "m")]),
}


class UsageError(Exception):
    pass


# what a decoder raises on well-formed JSON of the wrong shape
_BAD_PAYLOAD = (KeyError, ValueError, TypeError, AttributeError)


def _read_payload(path: str):
    if path in (None, "-"):
        return jsonio.loads(sys.stdin.read())
    try:
        with open(path) as fh:
            return jsonio.loads(fh.read())
    except OSError as exc:
        raise UsageError(str(exc))


def _emit(payload: dict):
    sys.stdout.write(jsonio.dumps(payload) + "\n")


def _load_filtration(path: str) -> SpFiltration:
    try:
        return SpFiltration.from_json(_read_payload(path))
    except _BAD_PAYLOAD as exc:
        raise UsageError(f"bad filtration payload: {exc}")


def _load_object(path: str) -> FormalObject:
    obj = _read_payload(path)
    try:
        if "ranks" in obj:
            return from_free_complex(FreeComplex.from_json(obj))
        if "graded" in obj:
            return FormalObject.from_json(obj)
    except _BAD_PAYLOAD as exc:
        raise UsageError(f"bad complex payload: {exc}")
    except (MemoryError, OverflowError):
        # a free complex holds one label per summand
        raise UsageError("bad complex payload: a rank is too large to hold")
    raise UsageError("complex payload needs 'ranks' (free complex) or 'graded'")


def _load_spectrum(arg: str):
    if arg in BUILTIN_SPECTRA:
        return BUILTIN_SPECTRA[arg]()
    payload = _read_payload(arg)
    try:
        return spectrum_from_json(payload)
    except _BAD_PAYLOAD as exc:
        raise UsageError(f"bad spectrum payload: {exc}")


def _codim_for(spectrum, path):
    if spectrum == SPEC_Z:
        if path is not None:
            raise UsageError("Spec(Z) has a fixed codimension function; drop --codim")
        return DUALIZING.codim
    if path is None:
        raise UsageError("a finite poset needs --codim values")
    values = _read_payload(path)
    try:
        return CodimFn.for_poset(spectrum, values)
    except _BAD_PAYLOAD as exc:
        raise UsageError(f"bad codimension payload: {exc}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_check_cousin(args) -> int:
    f = _load_filtration(args.filtration)
    weak = weak_cousin(f)
    strong = strong_cousin(f)
    _emit(
        {
            "weak": weak.holds,
            "strong": strong.holds,
            "witnesses": [[j, str(q), str(p)] for j, q, p in weak.witnesses],
            "strongWitnesses": [[j, str(q), str(p)] for j, q, p in strong.witnesses],
        }
    )
    return 0


def _cmd_cm(args) -> int:
    spectrum = _load_spectrum(args.spectrum)
    codim = _codim_for(spectrum, args.codim)
    _emit(cm_filtration(codim).to_json())
    return 0


def _cmd_dual(args) -> int:
    f = _load_filtration(args.filtration)
    codim = _codim_for(f.spectrum, args.codim)
    _emit(dual_filtration(f, codim).to_json())
    return 0


def _cmd_localize(args) -> int:
    f = _load_filtration(args.filtration)
    try:
        point = f.spectrum.check_point(args.point)
    except ValueError as exc:
        raise UsageError(f"bad point: {exc}")
    _emit(localize(f, point).to_json())
    return 0


def _cmd_census(args) -> int:
    spectrum = _load_spectrum(args.spectrum)
    try:
        a, b = args.window.split("..")
        window = int(a), int(b)
    except ValueError:
        raise UsageError(f"bad window {args.window!r}, expected a..b")
    universe = None
    if spectrum == SPEC_Z:
        try:
            universe = ZSubset.finite(int(p) for p in args.universe.split(",")).primes
        except ValueError as exc:
            raise UsageError(f"bad --universe {args.universe!r}: {exc}")
    census = enumerate_weak_cousin(spectrum, window, universe=universe, cap=args.cap)
    payload = {"count": len(census)}
    if not args.count_only:
        payload["filtrations"] = [f.to_json() for f in census]
    _emit(payload)
    return 0


def _cmd_truncate(args) -> int:
    f = _load_filtration(args.filtration)
    X = _load_object(args.complex)
    res = tau_filtration(f, X)
    payload = {
        "lower": res.lower.to_json(),
        "upper": res.upper.to_json(),
        "determinate": True,
        "fg": {"lower": res.lower.is_fg, "upper": res.upper.is_fg},
    }
    code = 0
    if args.engine in ("cech", "both"):
        from . import cech

        report = cech.validate_tau_filtration(f, X)
        payload["oracle"] = {"ok": report.ok, "mismatches": len(report.mismatches)}
        if args.engine == "both":
            payload["enginesAgree"] = report.ok
        if not report.ok:
            code = 1
    _emit(payload)
    return code


def _cmd_member(args) -> int:
    f = _load_filtration(args.filtration)
    X = _load_object(args.complex)
    member = in_aisle(f, X) if args.side == "aisle" else in_coaisle(f, X)
    _emit({"member": member, "side": args.side})
    return 0


def _cmd_kashiwara(args) -> int:
    payload = _read_payload(args.subset)
    try:
        Z = subset_from_json(payload, SPEC_Z)
    except _BAD_PAYLOAD as exc:
        raise UsageError(f"bad subset payload: {exc}")
    X = _load_object(args.complex)
    if args.lemma == 1:
        conditions = kashiwara1_predicate(Z, X, args.n)
    else:
        conditions = kashiwara2_predicate(Z, X, args.n)
    _emit({"lemma": args.lemma, "conditions": list(conditions), "equivalent": True})
    return 0


def _cmd_cm_check(args) -> int:
    X = _load_object(args.complex)
    _emit({"member": cm_membership(X)})
    return 0


def _strip_volatile(payload):
    # wall-clock timings would break byte-identical reruns
    if isinstance(payload, dict):
        return {k: _strip_volatile(v) for k, v in payload.items() if k != "seconds"}
    if isinstance(payload, list):
        return [_strip_volatile(v) for v in payload]
    return payload


def _cmd_verify(args) -> int:
    try:
        report = suites.run_suite(args.suite, seed=args.seed)
    except KeyError:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from "
            f"{sorted(suites.SUITES) + sorted(suites.ALIASES) + ['all']}"
        )
    _emit(_strip_volatile(report))
    if not args.quiet:
        status = "pass" if report["ok"] else "FAIL"
        print(f"suite {args.suite}: {status}", file=sys.stderr)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tstruct",
        description="workbench for filtrations by supports and their truncations",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="corpus seed")
    common.add_argument("--quiet", action="store_true", help="no stderr progress")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("check-cousin", help="weak/strong Cousin report")
    p.add_argument("-f", "--filtration", default="-")
    p.set_defaults(func=_cmd_check_cousin)

    p = add_parser("cm", help="codimension filtration of a spectrum")
    p.add_argument("--spectrum", default="specz")
    p.add_argument("--codim", default=None, help="JSON file of point values")
    p.set_defaults(func=_cmd_cm)

    p = add_parser("dual", help="dual of a finite filtration")
    p.add_argument("-f", "--filtration", default="-")
    p.add_argument("--codim", default=None)
    p.set_defaults(func=_cmd_dual)

    p = add_parser("localize", help="restrict to generalizations of a point")
    p.add_argument("-f", "--filtration", default="-")
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_localize)

    p = add_parser("census", help="enumerate weak-Cousin filtrations")
    p.add_argument("--spectrum", default="specz")
    p.add_argument("--window", required=True, help="a..b")
    p.add_argument("--universe", default="2,3,5")
    p.add_argument("--cap", type=int, default=10_000_000)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_census)

    p = add_parser("truncate", help="truncation triangle of a filtration")
    p.add_argument("-f", "--filtration", required=True)
    p.add_argument("-x", "--complex", required=True)
    p.add_argument("--engine", choices=("profile", "cech", "both"), default="profile")
    p.set_defaults(func=_cmd_truncate)

    p = add_parser("member", help="aisle / co-aisle membership")
    p.add_argument("-f", "--filtration", required=True)
    p.add_argument("-x", "--complex", required=True)
    p.add_argument("--side", choices=("aisle", "coaisle"), required=True)
    p.set_defaults(func=_cmd_member)

    p = add_parser("kashiwara", help="finiteness predicates")
    p.add_argument("--lemma", type=int, choices=(1, 2), required=True)
    p.add_argument("-z", "--subset", required=True)
    p.add_argument("-x", "--complex", required=True)
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_kashiwara)

    p = add_parser("cm-check", help="Cohen-Macaulay aisle membership")
    p.add_argument("-x", "--complex", required=True)
    p.set_defaults(func=_cmd_cm_check)

    p = add_parser("verify", help="run a property suite")
    p.add_argument("--suite", default="all")
    p.set_defaults(func=_cmd_verify)

    return parser


def _env_seed() -> int:
    value = os.environ.get("TSTRUCT_SEED", str(DEFAULT_SEED))
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"TSTRUCT_SEED must be an integer, got {value!r}")


def _join_window(argv) -> list:
    """``--window a..b`` (or an abbreviation of ``--window``) spelled
    ``--window=a..b``: argparse takes a value that starts with ``-`` and
    is not a number, like ``-3..3``, for an option."""
    out = []
    args = iter(argv)
    for arg in args:
        is_window = len(arg) > 2 and "--window".startswith(arg)
        out.append("--window=" + next(args, "") if is_window else arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_window(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"property failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
