import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tstruct.cli import main
from tstruct.jsonio import dumps, loads

REPEATED_LEVEL = {
    "spectrum": {"ring": "Z"},
    "tail": {"kind": "finite", "primes": [2]},
    "window": {"start": 0, "end": 1},
    "levels": [{"kind": "finite", "primes": [2]}, {"kind": "finite", "primes": [2]}],
    "head": {"kind": "finite", "primes": []},
}
Z_STALK = {"minDeg": 0, "ranks": [1], "diffs": []}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (loads(out) if out.strip() else None)


def test_check_cousin(files, capsys):
    path = files("f.json", REPEATED_LEVEL)
    code, out = run(capsys, "check-cousin", "-f", path)
    assert code == 0
    assert out["weak"] is False
    assert [1, "(2)", "0"] in out["witnesses"]
    assert out["schema"] == "tstruct/1"


def test_truncate_both_engines(files, capsys):
    f = files("f.json", REPEATED_LEVEL)
    x = files("x.json", Z_STALK)
    code, out = run(capsys, "truncate", "-f", f, "-x", x, "--engine", "both")
    assert code == 0
    assert out["enginesAgree"] is True
    assert out["fg"] == {"lower": False, "upper": False}
    assert out["determinate"] is True
    # byte-identical output on repeated runs
    main(["truncate", "-f", f, "-x", x, "--engine", "both"])
    second = capsys.readouterr().out
    main(["truncate", "-f", f, "-x", x, "--engine", "both"])
    third = capsys.readouterr().out
    assert second == third


# the paper's Cousin failure: the level "all maximal ideals" in degrees 0, 1
PAPER_EXAMPLE = {
    "spectrum": {"ring": "Z"},
    "tail": {"kind": "whole"},
    "window": {"start": 0, "end": 1},
    "levels": [{"kind": "cofinite", "primes": []}, {"kind": "cofinite", "primes": []}],
    "head": {"kind": "finite", "primes": []},
}


def test_truncate_both_engines_on_cofinite_levels(files, capsys):
    f = files("f.json", PAPER_EXAMPLE)
    x = files("x.json", Z_STALK)
    code, out = run(capsys, "truncate", "-f", f, "-x", x, "--engine", "both")
    assert code == 0
    assert out["enginesAgree"] is True and out["oracle"] == {"ok": True, "mismatches": 0}
    maximals = {"kind": "cofinite", "primes": []}
    # lower: the sum of all Pruefer groups in degree 1; upper: Q in degree 0
    assert out["lower"]["graded"] == [
        [1, {"free": 0, "localized": [], "torsion": [], "prufer": [{"primes": maximals, "mult": 1}]}]
    ]
    assert out["upper"]["graded"] == [
        [0, {"free": 0, "localized": [{"inverted": maximals, "rank": 1}], "torsion": [], "prufer": []}]
    ]


def test_census_count_matches_library(files, capsys):
    code, out = run(capsys, "census", "--spectrum", "two-chain", "--window", "0..1",
                    "--count-only")
    assert code == 0 and out["count"] == 5
    code, out = run(capsys, "census", "--spectrum", "two-chain", "--window", "0..1")
    assert len(out["filtrations"]) == 5


@pytest.mark.parametrize(
    "spelling", [("--window", "-1..1"), ("--window=-1..1",), ("--win", "-1..1")]
)
def test_census_window_below_zero(capsys, spelling):
    # a window that starts below 0 reads the same either way it is spelled
    code, out = run(capsys, "census", *spelling, "--universe", "2", "--count-only")
    assert code == 0 and out["count"] == 7


def test_census_round_trips_through_check_cousin(files, capsys):
    code, out = run(capsys, "census", "--window", "0..1", "--universe", "2,3")
    assert code == 0 and out["count"] == len(out["filtrations"]) > 0
    for k, f in enumerate(out["filtrations"]):
        code, rep = run(capsys, "check-cousin", "-f", files(f"f{k}.json", f))
        assert code == 0 and rep["weak"] is True


@pytest.mark.parametrize("universe", ["0", "2,0", "a", ""])
def test_bad_universe_is_usage_error(capsys, universe):
    assert main(["census", "--window", "0..1", "--universe", universe]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: bad --universe ")


def test_member(files, capsys):
    f = files("f.json", REPEATED_LEVEL)
    x = files("x.json", Z_STALK)
    code, out = run(capsys, "member", "-f", f, "-x", x, "--side", "aisle")
    assert code == 0 and out["member"] is False
    code, out = run(capsys, "member", "-f", f, "-x", x, "--side", "coaisle")
    assert code == 0 and out["member"] is False


def test_kashiwara(files, capsys):
    z = files("z.json", {"kind": "finite", "primes": [2]})
    x = files("x.json", Z_STALK)
    code, out = run(capsys, "kashiwara", "--lemma", "1", "-z", z, "-x", x, "-n", "0")
    assert code == 0 and out["conditions"] == [True, True, True]
    code, out = run(capsys, "kashiwara", "--lemma", "2", "-z", z, "-x", x, "-n", "1")
    assert code == 0 and out["conditions"] == [False, False]


def test_cm_and_dual_and_localize(files, capsys):
    code, out = run(capsys, "cm")
    assert code == 0 and out["levels"][0]["kind"] == "cofinite"
    f = files("canon.json", {
        "spectrum": {"ring": "Z"},
        "tail": {"kind": "whole"},
        "window": {"start": 1, "end": 0},
        "levels": [],
        "head": {"kind": "finite", "primes": []},
    })
    code, dual = run(capsys, "dual", "-f", f)
    assert code == 0 and dual == out  # dual of the canonical is the cm filtration
    code, loc = run(capsys, "localize", "-f", f, "--point", "(2)")
    assert code == 0 and loc["spectrum"]["points"] == [{"id": "0"}, {"id": "(2)"}]


def test_cm_check(files, capsys):
    x = files("x.json", Z_STALK)
    code, out = run(capsys, "cm-check", "-x", x)
    assert code == 0 and out["member"] is False
    shifted = files("y.json", {"minDeg": -1, "ranks": [1], "diffs": []})
    code, out = run(capsys, "cm-check", "-x", shifted)
    assert code == 0 and out["member"] is True


def test_verify_suite(files, capsys):
    code, out = run(capsys, "verify", "--suite", "filtration")
    assert code == 0 and out["ok"] is True


def test_usage_errors(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check-cousin", "-f", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert main(["census", "--window", "zz"]) == 2
    assert main(["nope"]) == 2


def test_bad_seed_variable_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("TSTRUCT_SEED", "abc")
    assert main(["verify", "--suite", "top-index", "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "TSTRUCT_SEED" in captured.err


def run_process(*argv):
    """The CLI in a fresh interpreter, so an escaping exception shows as a
    traceback on stderr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "tstruct.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


# a nesting depth the decoder accepts but ``jsonio._decode`` does not
BELOW_RECURSION_LIMIT = sys.getrecursionlimit() - 100


@pytest.mark.parametrize(
    "text, argv",
    [
        ("[" * 100_000, ("check-cousin", "-f", "P")),
        ('{"a":' * BELOW_RECURSION_LIMIT + "1" + "}" * BELOW_RECURSION_LIMIT,
         ("truncate", "-f", "P", "-x", "P")),
    ],
    ids=["array-100000", "object-below-recursion-limit"],
)
def test_deeply_nested_json_is_usage_error(tmp_path, text, argv):
    path = tmp_path / "deep.json"
    path.write_text(text)
    proc = run_process(*[str(path) if a == "P" else a for a in argv])
    assert proc.returncode == 2
    assert proc.stderr == "error: bad filtration payload: malformed JSON: nested too deeply\n"


def _module(atoms):
    """A formal object with one elementary module in degree 0."""
    return {"graded": [[0, atoms]]}


@pytest.mark.parametrize(
    "payload, argv",
    [
        ({}, ("census", "--spectrum", "{}", "--window", "0..1")),
        (5, ("census", "--spectrum", "{}", "--window", "0..1")),
        ({"points": [{"id": None}, {"id": "m"}]}, ("census", "--spectrum", "{}", "--window", "0..1")),
        (5, ("kashiwara", "--lemma", "1", "-z", "{}", "-x", "X", "-n", "0")),
        (5, ("cm", "--spectrum", "two-chain", "--codim", "{}")),
        ({"p": 0.5, "m": 1.9}, ("cm", "--spectrum", "two-chain", "--codim", "{}")),
        ({"p": True, "m": 2}, ("cm", "--spectrum", "two-chain", "--codim", "{}")),
        ({"points": [{"id": "p"}, {"id": "m"}], "covers": ["pm"]},
         ("census", "--spectrum", "{}", "--window", "0..1")),
        ({"graded": [["x", {"free": 1}]]}, ("truncate", "-f", "F", "-x", "{}")),
        ({"graded": [[0.5, {"free": 1}]]}, ("truncate", "-f", "F", "-x", "{}")),
        ({"graded": [[True, {"free": 1}]]}, ("truncate", "-f", "F", "-x", "{}")),
        ({"ranks": [], "diffs": [[[1]]]}, ("truncate", "-f", "F", "-x", "{}")),
        ({"minDeg": 0.5, "ranks": [1], "diffs": []}, ("cm-check", "-x", "{}")),
        ({**REPEATED_LEVEL, "window": {"start": None}}, ("check-cousin", "-f", "{}")),
        (_module({"torsion": [["2", 1, 1]]}), ("truncate", "-f", "F", "-x", "{}", "--engine", "both")),
        (_module({"torsion": [["2", 1, 1]]}), ("truncate", "-f", "F", "-x", "{}")),
        (_module({"torsion": [[4, 1, 1]]}), ("truncate", "-f", "F", "-x", "{}")),
        (_module({"torsion": [[4, 1, 1]]}), ("member", "-f", "F", "-x", "{}", "--side", "aisle")),
        (_module({"torsion": [[4, 1, 1]]}), ("truncate", "-f", "F", "-x", "{}", "--engine", "both")),
        (_module({"torsion": [[0, 1, 1]]}), ("member", "-f", "F", "-x", "{}", "--side", "aisle")),
        (_module({"torsion": [[2, 0, 0]]}), ("truncate", "-f", "F", "-x", "{}")),
        (_module({"torsion": [[2, 1.0, 1]]}), ("truncate", "-f", "F", "-x", "{}")),
        (_module({"free": True}), ("truncate", "-f", "F", "-x", "{}")),
        (_module({"prufer": [{"primes": {"kind": "finite", "primes": [2]}, "mult": "1"}]}),
         ("member", "-f", "F", "-x", "{}", "--side", "coaisle")),
        ({"minDeg": 0, "ranks": [1.7], "diffs": []}, ("truncate", "-f", "F", "-x", "{}")),
        ({"minDeg": 0, "ranks": ["1"], "diffs": []}, ("truncate", "-f", "F", "-x", "{}")),
        ({"minDeg": 0, "ranks": [True], "diffs": []}, ("cm-check", "-x", "{}")),
        ({"minDeg": 0, "ranks": [2**53], "diffs": []}, ("truncate", "-f", "F", "-x", "{}")),
        ({"minDeg": 0, "ranks": [2**64], "diffs": []}, ("cm-check", "-x", "{}")),
        ({"minDeg": -1, "ranks": [1, 1], "diffs": [[["2"]]]}, ("truncate", "-f", "F", "-x", "{}")),
        ({"ranks": [2, 2], "diffs": [[[1, 0], [1]]]}, ("truncate", "-f", "F", "-x", "{}")),
        ({"ranks": [2, 2], "diffs": [[[1, 0], [0, 1, 5]]]}, ("truncate", "-f", "F", "-x", "{}")),
        ({"kind": "finite", "primes": [2.7, "3"]}, ("kashiwara", "--lemma", "1", "-z", "{}", "-x", "X", "-n", "0")),
        ({"kind": "cofinite", "primes": [5.5]}, ("kashiwara", "--lemma", "1", "-z", "{}", "-x", "X", "-n", "0")),
        ({"kind": "finite", "primes": "23"}, ("kashiwara", "--lemma", "2", "-z", "{}", "-x", "X", "-n", "0")),
        ({"kind": "finite", "primes": [0]}, ("kashiwara", "--lemma", "1", "-z", "{}", "-x", "X", "-n", "0")),
        ({**REPEATED_LEVEL, "levels": [{"kind": "finite", "primes": [2.5]}, {"kind": "finite", "primes": [2]}]},
         ("check-cousin", "-f", "{}")),
        (_module({"localized": [{"inverted": {"kind": "finite", "primes": ["3"]}, "rank": 1}]}),
         ("truncate", "-f", "F", "-x", "{}")),
        (_module({"localized": [{"inverted": {"kind": "cofinite", "primes": "23"}, "rank": 1}]}),
         ("truncate", "-f", "F", "-x", "{}")),
        ({**REPEATED_LEVEL, "levels": [{"kind": "points", "points": ["(2)"]}]},
         ("check-cousin", "-f", "{}")),
        (REPEATED_LEVEL, ("localize", "-f", "{}", "--point", "abc")),
    ],
    ids=["census-spectrum-empty", "census-spectrum-int", "census-spectrum-null-id",
         "kashiwara-subset-int", "cm-codim-int", "cm-codim-float", "cm-codim-bool",
         "census-spectrum-cover-str", "graded-degree-str",
         "graded-degree-float", "graded-degree-bool", "complex-diffs-without-ranks",
         "complex-min-degree-float", "filtration-start-null",
         "torsion-prime-str-both", "torsion-prime-str-profile", "torsion-prime-4-truncate",
         "torsion-prime-4-member", "torsion-prime-4-both", "torsion-prime-0",
         "torsion-exponent-0", "torsion-exponent-float", "free-rank-bool",
         "prufer-mult-str", "complex-rank-float", "complex-rank-str", "complex-rank-bool",
         "complex-rank-2**53", "complex-rank-2**64",
         "complex-entry-str", "complex-row-short", "complex-row-long",
         "subset-prime-float", "subset-cofinite-prime-float",
         "subset-primes-str", "subset-prime-0", "filtration-level-prime-float",
         "localized-inverted-prime-str", "localized-inverted-primes-str",
         "filtration-level-points-over-specz", "localize-point-abc"],
)
def test_malformed_payload_is_usage_error(files, payload, argv):
    bad = files("bad.json", payload)
    x = files("x.json", Z_STALK)
    f = files("f.json", REPEATED_LEVEL)
    argv = [bad if a == "{}" else x if a == "X" else f if a == "F" else a for a in argv]
    proc = run_process(*argv)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: bad ")


def test_long_integers_as_decimal_strings_are_accepted(files, capsys):
    # integers beyond 53 bits travel as decimal strings and decode first
    big = str(2**61 - 1)
    f = files("f.json", REPEATED_LEVEL)
    for payload in (_module({"torsion": [[big, 1, 1]]}),
                    {"minDeg": -1, "ranks": [1, 1], "diffs": [[[big]]]}):
        x = files("x.json", payload)
        code, out = run(capsys, "truncate", "-f", f, "-x", x)
        assert code == 0
        assert out["lower"]["graded"] == []  # Z/(2^61 - 1) lies in the co-aisle
    z = files("z.json", {"kind": "cofinite", "primes": [big]})
    code, out = run(capsys, "kashiwara", "--lemma", "1", "-z", z, "-x", x, "-n", "0")
    assert code == 0


SPEC_Z_CANONICAL = {
    "spectrum": {"ring": "Z"},
    "tail": {"kind": "whole"},
    "window": {"start": 1, "end": 0},
    "levels": [],
    "head": {"kind": "finite", "primes": []},
}


@pytest.mark.parametrize("argv", [("cm",), ("dual", "-f", "F")], ids=["cm", "dual"])
def test_codim_rejected_for_spec_z(files, capsys, tmp_path, argv):
    # Spec(Z) carries its own codimension function; a --codim file is
    # refused whether or not it exists or parses
    f = files("f.json", SPEC_Z_CANONICAL)
    argv = [f if a == "F" else a for a in argv]
    for codim in (files("codim.json", 5), str(tmp_path / "missing.json")):
        assert main([*argv, "--codim", codim]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "--codim" in captured.err


def test_bigint_roundtrip():
    blob = dumps({"n": 2**80})
    assert json.loads(blob)["n"] == str(2**80)
    assert loads(blob)["n"] == 2**80


# -- fuzzing the payload flags --------------------------------------------------

TWO_CHAIN = {"points": [{"id": "p"}, {"id": "m"}], "covers": [["p", "m"]]}
POSET_FILTRATION = {
    "spectrum": TWO_CHAIN,
    "tail": {"kind": "points", "points": ["m", "p"]},
    "window": {"start": 1, "end": 1},
    "levels": [{"kind": "points", "points": ["m"]}],
    "head": {"kind": "points", "points": []},
}
GRADED = {
    "graded": [
        [0, {"free": 1, "localized": [], "torsion": [[2, 2, 1]], "prufer": []}],
        [1, {"free": 0,
             "localized": [{"inverted": {"kind": "finite", "primes": [5]}, "rank": 1}],
             "torsion": [],
             "prufer": [{"primes": {"kind": "finite", "primes": [3]}, "mult": 1}]}],
    ]
}
# cm-check's Hom route reads finitely generated homology only
GRADED_FG = {"graded": GRADED["graded"][:1]}
KOSZUL = {"minDeg": -1, "ranks": [1, 1], "diffs": [[[4]]]}

# (flag, valid payloads, command line with P for the payload file)
PAYLOAD_FLAGS = [
    ("-f", (REPEATED_LEVEL, SPEC_Z_CANONICAL), ("check-cousin", "-f", "P")),
    ("-f", (REPEATED_LEVEL,), ("localize", "-f", "P", "--point", "(2)")),
    ("-f", (POSET_FILTRATION,), ("localize", "-f", "P", "--point", "m")),
    ("-f", (REPEATED_LEVEL,), ("truncate", "-f", "P", "-x", "X")),
    ("-f", (POSET_FILTRATION,), ("dual", "-f", "P", "--codim", "C")),
    ("-x", (Z_STALK, KOSZUL, GRADED), ("truncate", "-f", "F", "-x", "P")),
    ("-x", (Z_STALK, KOSZUL, GRADED), ("member", "-f", "F", "-x", "P", "--side", "aisle")),
    ("-x", (Z_STALK, KOSZUL, GRADED_FG), ("cm-check", "-x", "P")),
    ("-z", ({"kind": "finite", "primes": [2]}, {"kind": "cofinite", "primes": [3]}),
     ("kashiwara", "--lemma", "1", "-z", "P", "-x", "X", "-n", "0")),
    ("--spectrum", (TWO_CHAIN, {"ring": "Z"}),
     ("census", "--spectrum", "P", "--window", "0..1")),
    ("--codim", ({"p": 0, "m": 1},), ("cm", "--spectrum", "two-chain", "--codim", "P")),
]

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([2**53, 2**64, -(2**64)]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(["", "x", "p", "m", "(2)", "finite", "cofinite", "whole", "points", "Z"]),
)
_junk = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["kind", "primes", "free", "graded", "ranks"]),
                        inner, max_size=2),
    ),
    max_leaves=4,
)


def _mutate(value, data):
    """One random edit somewhere inside a JSON value: replace a node with
    junk, drop a key or an element, or descend."""
    children = (
        list(value.items()) if isinstance(value, dict)
        else list(enumerate(value)) if isinstance(value, list) else []
    )
    move = data.draw(st.sampled_from(["replace", "drop", "descend"] if children else ["replace"]))
    if move == "replace":
        return data.draw(_junk)
    key, child = data.draw(st.sampled_from(children))
    out = dict(value) if isinstance(value, dict) else list(value)
    if move == "drop":
        del out[key]
    else:
        out[key] = _mutate(child, data)
    return out


def _payload_paths(files, payload):
    return {
        "P": files("payload.json", payload),
        "F": files("f.json", REPEATED_LEVEL),
        "X": files("x.json", Z_STALK),
        "C": files("codim.json", {"p": 0, "m": 1}),
    }


@pytest.mark.parametrize(
    "argv, payload",
    [(argv, payload) for _, valid, argv in PAYLOAD_FLAGS for payload in valid],
)
def test_unmutated_payloads_exit_0(files, argv, payload):
    # the fuzzer's starting points are accepted, so its mutations reach
    # the parsers rather than failing on the command line around them
    paths = _payload_paths(files, payload)
    assert main([paths.get(a, a) for a in argv] + ["--quiet"]) == 0


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzzed_payloads_exit_0_or_2(files, data):
    flag, valid, argv = data.draw(st.sampled_from(PAYLOAD_FLAGS))
    payload = data.draw(st.sampled_from(valid))
    for _ in range(data.draw(st.integers(1, 3))):
        payload = _mutate(payload, data)
    paths = _payload_paths(files, payload)
    assert flag in argv
    code = main([paths.get(a, a) for a in argv] + ["--quiet"])
    assert code in (0, 2), (argv, payload)
