"""tstruct benchmark: closed-loop workloads over the engine and the oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oracle-agreement --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each case starts when the
previous one has finished.  A run first builds the workload's inputs
from the seed several times (``setup_s`` is the median), checks the
frozen digests of the default-seed inputs and engine outputs, then runs
whole passes over the inputs until ``--seconds`` have passed.  Before
each pass every ``functools`` cache of the package is cleared, as a
fresh ``tstruct verify`` process starts cold.  Every case's verdicts are
checked; a wrong verdict, a raised exception or a digest mismatch makes
the run exit with code 1.

Reported times are scaled to a nominal host speed by a fixed reference
loop run after every pass and set-up (see ``SpeedProbe``); the
unscaled figures and the factor are printed above the result line.
Per-layer self times are not scaled.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` half of the time runs untraced and half traced; the last
line reports the per-layer metrics and the spans go to
``.bench_trace/<workload>-<seed>.json``.  ``--workload all`` runs every
workload, each in a fresh process so that each measures its own peak
memory, and fails if any fails.  ``--freeze`` records the default-seed
digests in ``frozen.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FROZEN = HERE / "frozen.json"
# set-up is repeated at least this often and for at least this long
SETUP_REPEATS = (3, 9)
SETUP_MIN_SECONDS = 1.5
# The host's CPU speed moves by about 20% in regimes lasting minutes, so
# identical runs a few minutes apart differ by more than a regression
# worth catching.  A fixed loop that shares no code with the package
# runs after every pass and set-up for a tenth of its time; reported
# times are scaled by the loop's nominal time over its measured time in
# the same run.
REFERENCE_NOMINAL_S = 0.037
REFERENCE_SHARE = 0.1


def _reference_work():
    """Small integer-matrix elimination and tuple hashing, like the
    package's inner loops but none of its code."""
    out = 0
    for k in range(1500):
        M = [[(k * 7 + i * 13 + j * 5) % 29 - 14 for j in range(5)] for i in range(5)]
        for i in range(4):
            for j in range(i + 1, 5):
                if M[i][i]:
                    q = M[j][i] // M[i][i]
                    M[j] = [a - q * b for a, b in zip(M[j], M[i])]
        out ^= hash(tuple(sorted(tuple(r) for r in M)))
    return out


class SpeedProbe:
    """Times of the reference loop over one run."""

    def __init__(self):
        self.samples = []

    def sample(self, after_seconds: float):
        """Run the loop at least once and for a share of ``after_seconds``."""
        spent = 0.0
        while not spent or spent < REFERENCE_SHARE * after_seconds:
            t0 = time.perf_counter()
            _reference_work()
            self.samples.append(time.perf_counter() - t0)
            spent += self.samples[-1]

    @property
    def factor(self) -> float:
        """Nominal over measured reference time; below 1 on a slow host."""
        return REFERENCE_NOMINAL_S * len(self.samples) / sum(self.samples)


def _import_package():
    """Put the checkout's ``src`` first on the path; refuse to run
    against any other copy of the package."""
    src = ROOT / "src"
    if not (src / "tstruct" / "__init__.py").is_file():
        sys.exit(f"benchmark: no tstruct sources under {src}")
    sys.path.insert(0, str(src))
    import tstruct

    if src not in Path(tstruct.__file__).resolve().parents:
        sys.exit(f"benchmark: imported tstruct from {tstruct.__file__}, not {src}")


class PassRunner:
    """Runs whole passes until a time budget is spent."""

    def __init__(self, caches: dict, oracle_caches: dict):
        self.caches = caches
        self.oracle_caches = oracle_caches
        self.latencies = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.first_error = None
        self.cache_log = []  # cache_info() of every oracle cache after each pass
        self.probe = SpeedProbe()

    def run(self, passes: list, seconds: float, replace=None):
        clock = time.perf_counter
        start = clock()
        while True:
            cases = passes[self.passes % len(passes)]
            for cached in self.caches.values():
                cached.cache_clear()
            gc.collect()
            t_pass = clock()
            for check, args in cases:
                if replace:
                    check = replace[check]
                t0 = clock()
                try:
                    ok = check(*args)
                except Exception:  # a raising case is a failed case
                    ok = False
                    if self.first_error is None:
                        self.first_error = traceback.format_exc()
                self.latencies.append(clock() - t0)
                self.attempted += 1
                self.failed += not ok
            pass_seconds = clock() - t_pass
            self.busy += pass_seconds
            self.passes += 1
            self.probe.sample(pass_seconds)
            self.cache_log.append(
                {name: c.cache_info()._asdict() for name, c in self.oracle_caches.items()}
            )
            # stop at the pass boundary nearest the time budget
            mean_pass = (clock() - start) / self.passes
            if clock() - start + mean_pass / 2 >= seconds:
                return

    @property
    def cases_per_s(self) -> float:
        """At the nominal host speed."""
        return self.attempted / (self.busy * self.probe.factor)

    @property
    def cache_totals(self) -> dict:
        """Hits and misses summed over passes, largest size after a pass."""
        return {
            name: {
                "hits": sum(log[name]["hits"] for log in self.cache_log),
                "misses": sum(log[name]["misses"] for log in self.cache_log),
                "currsize": max(log[name]["currsize"] for log in self.cache_log),
            }
            for name in self.oracle_caches
        }


def _frozen_check(workloads, name: str) -> list:
    """Problems with the default-seed inputs and engine outputs."""
    want = json.loads(FROZEN.read_text())
    if want.get("seed") != workloads.DEFAULT_SEED or name not in want:
        return [f"frozen.json has no digests for {name} at the default seed"]
    inputs = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
    problems = []
    if workloads.inputs_digest(inputs) != want[name]["inputs"]:
        problems.append("default-seed inputs differ from the frozen digest")
    try:
        outputs = workloads.outputs_digest(inputs)
    except Exception:
        outputs = None
        print(traceback.format_exc(), file=sys.stderr)
    if outputs != want[name]["outputs"]:
        problems.append("default-seed engine outputs differ from the frozen digest")
    return problems


def _freeze(workloads):
    out = {"seed": workloads.DEFAULT_SEED}
    for name, build in workloads.WORKLOADS.items():
        inputs = build(workloads.DEFAULT_SEED)
        out[name] = {
            "inputs": workloads.inputs_digest(inputs),
            "outputs": workloads.outputs_digest(inputs),
        }
    FROZEN.write_text(json.dumps(out, indent=2) + "\n")
    print(json.dumps(out, indent=2))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(inputs, seconds, setup_s, caches, oracle_caches):
    runner = PassRunner(caches, oracle_caches)
    runner.run(inputs.passes, seconds)
    q = statistics.quantiles(runner.latencies, n=10)
    factor = runner.probe.factor
    print(
        f"host speed factor {factor:.4f}; unscaled cases_per_s "
        f"{runner.attempted / runner.busy:.2f}, case_ms_p50 {q[4] * 1e3:.4f}, "
        f"case_ms_p90 {q[8] * 1e3:.4f} over {len(runner.latencies)} cases"
    )
    metrics = {
        "cases_per_s": _metric(runner.cases_per_s, "1/s"),
        "case_ms_p50": _metric(q[4] * factor * 1e3, "ms"),
        "case_ms_p90": _metric(q[8] * factor * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    return metrics, [runner]


def _per_layer(tracing, build, seed, inputs, seconds, caches, oracle_caches, trace_file):
    """Half the time untraced, then half traced on freshly built inputs
    (so set-up layers are traced too); spans go to ``trace_file``."""
    plain = PassRunner(caches, oracle_caches)
    plain.run(inputs.passes, seconds / 2)
    traced = PassRunner(caches, oracle_caches)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        inputs = build(seed)
        checks = {check for cases in inputs.passes for check, _ in cases}
        traced.run(
            inputs.passes,
            seconds / 2,
            {check: tracer.wrap(tracing.CASE_SPAN, check) for check in checks},
        )
    finally:
        tracer.uninstall()
    metrics = {}
    for name in tracing.boundary_names():
        metrics[f"{name}.calls"] = _metric(tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = _metric(tracer.self_s[name], "s")
    metrics["derived.tau_filtration.distinct_inputs"] = _metric(
        len(tracer.tau_inputs), "count"
    )
    for name, count in tracer.counts.items():
        metrics[name] = _metric(count, "count")
    totals = traced.cache_totals
    for name in tracing.CECH_CACHES:
        total = totals.get(name)
        if total is None:
            tracer.absent.append(f"cech.cache.{name}")
            total = {"hits": 0, "misses": 0, "currsize": 0}
        for field, value in total.items():
            metrics[f"cech.cache.{name}.{field}"] = _metric(value, "count")
    metrics["trace.cases_per_s_ratio"] = _metric(
        traced.cases_per_s / plain.cases_per_s, "ratio"
    )
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(
        json.dumps(
            {
                "passes": traced.passes,
                "cases": traced.attempted,
                "caches": totals,
                "caches_per_pass": traced.cache_log,
                **tracer.to_json(),
            }
        )
    )
    print(f"trace written to {trace_file.relative_to(ROOT)}")
    if tracer.absent:
        print("absent boundaries: " + ", ".join(sorted(tracer.absent)))
    return metrics, [plain, traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--freeze", action="store_true")
    args = ap.parse_args(argv)

    _import_package()
    import tracer as tracing
    import workloads

    if args.freeze:
        _freeze(workloads)
        return 0
    if args.workload == "all":
        codes = []
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds)]
            cmd += ["--trace", str(args.trace)]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be all or one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    build = workloads.WORKLOADS[args.workload]

    caches = tracing.find_caches()
    oracle_caches = {
        name: caches[f"cech.{name}"]
        for name in tracing.CECH_CACHES
        if f"cech.{name}" in caches
    }

    least, most = SETUP_REPEATS if not args.trace else (1, 1)
    setup_times = []
    setup_probe = SpeedProbe()
    while len(setup_times) < least or (
        len(setup_times) < most and sum(setup_times) < SETUP_MIN_SECONDS
    ):
        inputs = None  # free the previous build before timing the next
        t0 = time.perf_counter()
        inputs = build(seed)
        setup_times.append(time.perf_counter() - t0)
        setup_probe.sample(setup_times[-1])
    problems = _frozen_check(workloads, args.workload)
    # inputs of passes not yet run are not part of the program's working
    # set: keep them out of the collector's full scans
    gc.collect()
    gc.freeze()

    if args.trace:
        trace_file = ROOT / ".bench_trace" / f"{args.workload}-{seed}.json"
        metrics, runners = _per_layer(
            tracing, build, seed, inputs, args.seconds, caches, oracle_caches, trace_file
        )
    else:
        setup_s = statistics.median(setup_times) * setup_probe.factor
        metrics, runners = _end_to_end(inputs, args.seconds, setup_s, caches, oracle_caches)

    for runner in runners:
        if runner.first_error:
            print(runner.first_error, file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    failed = sum(r.failed for r in runners)
    attempted = sum(r.attempted for r in runners)
    last = runners[-1]
    print(f"workload {args.workload} seed {seed} trace {args.trace}")
    print(f"inputs {json.dumps(inputs.properties, sort_keys=True)}")
    print(f"passes {last.passes} cases {last.attempted} of {len(inputs.passes)} passes generated")
    print(f"failed_frac {failed / attempted} 1 ({failed} of {attempted})")
    print(f"frozen digests {'ok' if not problems else 'MISMATCH'}")
    for name, total in last.cache_totals.items():
        print(f"cache cech.{name} {json.dumps(total)}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
