"""penmix benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/penmix`` and ``scenarios/``
must exist).  The workload's inputs are generated from ``--seed``; a single
caller runs one op after another for ``--seconds`` and checks every op's
outputs.  The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are the per-layer metrics, read from spans recorded
around calls into each penmix module (see spans.py).  The line before it is a
``{"report": ...}`` object with the environment, sample counts and the
metrics that BENCHMARK.json does not gate.  See NOTES.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "PENMIX_THREADS")
WORKLOAD_NAMES = ("sweep-cold", "policy-warm", "babyboom", "mc-oracle")

#: end-to-end metrics on the result line (the ones BENCHMARK.json gates)
GATED = ("setup_s", "ops_per_s_norm", "peak_rss_mb")
#: set-up is timed this many times, in fresh processes, and the median kept
SETUP_PROBES = 5
#: host speed probes taken on each side of a timed set-up
SETUP_SPEED_PROBES = 5
#: a run needs this many ops to report a tail latency
TAIL_MIN_OPS = 20


def pin_threads() -> None:
    """One thread for every math library and for penmix's own pool.

    Must run before numpy is imported.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def checkout_problem() -> str | None:
    """Why this directory cannot be benchmarked, or None."""
    for need in (SRC / "penmix" / "__init__.py",
                 ROOT / "scenarios" / "scenario_us.json",
                 ROOT / "scenarios" / "scenario_cn.json",
                 ROOT / "scenarios" / "scenario_us_babyboom.json"):
        if not need.is_file():
            return f"{need.relative_to(ROOT)} not found under {ROOT}"
    return None


def bootstrap():
    """Make penmix importable from the checkout; returns the workloads module."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import workloads
    return workloads


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# environment
# --------------------------------------------------------------------------

def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _src_digest() -> str:
    """sha256 over src/penmix/*.py: names the code measured without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "penmix").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    return {
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

def _workdir(args) -> Path:
    path = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def setup_probe(args, workloads) -> int:
    """Child side of set-up timing: set up, say 'ready', clean up."""
    workdir = _workdir(args)
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        wl.setup()
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def time_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its set-up being done:
    interpreter start, ``import penmix``, input generation, prebuilds.

    Returns the raw time and the time at the reference host speed (see
    hostspeed.py), probed just before and just after.
    """
    import hostspeed

    probes = [hostspeed.kernel() for _ in range(SETUP_SPEED_PROBES)]
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    probes += [hostspeed.kernel() for _ in range(SETUP_SPEED_PROBES)]
    return elapsed, elapsed * hostspeed.scale(probes)


# --------------------------------------------------------------------------
# the timed loop
# --------------------------------------------------------------------------

def measure(wl, seconds: float, tracer, spans) -> dict:
    """Closed loop for ``seconds``; with a tracer every other op is traced.

    Without a tracer every op runs under a host speed probe (hostspeed.py),
    which also gives its time at the reference host speed.
    """
    import hostspeed
    import penmix

    lat_ok, lat_traced, lat_plain, norm_ok, probes = [], [], [], [], []
    failures, path_steps = [], 0
    attempted = 0
    delta = {prefix: None for prefix, _, _ in spans.CACHES}
    start = perf_counter()
    while True:
        i = attempted
        inp = wl.input(i)
        traced = tracer is not None and i % 2 == 1
        if traced:
            before = spans.cache_snapshot(penmix)
            tracer.op = i
            tracer.install()
        probe = hostspeed.SpeedProbe() if tracer is None else None
        t0 = perf_counter()
        try:
            if probe is None:
                raw = wl.run(inp, tracer if traced else None)
            else:
                with probe:
                    raw = wl.run(inp, None)
            error = None
        except Exception:
            raw, error = None, traceback.format_exc()
        finally:
            elapsed = perf_counter() - t0 if probe is None else probe.elapsed
            if traced:
                tracer.uninstall()
        if probe is not None:
            probes += probe.samples
        if traced:
            after = spans.cache_snapshot(penmix)
            for key, b in before.items():
                if b is not None and after[key] is not None:
                    old = delta[key] or (0, 0)
                    delta[key] = (old[0] + after[key][0] - b[0],
                                  old[1] + after[key][1] - b[1])
        attempted += 1
        if error is None:
            try:
                problems = wl.evaluate(i, inp, raw)
            except Exception:
                problems = [traceback.format_exc()]
        else:
            problems = [error]
        if problems:
            failures.append({"op": i, "problems": problems})
            print(f"perfbench: op {i} failed: {problems}", file=sys.stderr)
        else:
            lat_ok.append(elapsed)
            if probe is not None:
                norm_ok.append(probe.normalized)
            path_steps += wl.path_steps(raw)
        if tracer is not None:
            (lat_traced if traced else lat_plain).append(elapsed)
        if perf_counter() - start >= seconds and (tracer is None or attempted >= 2):
            break
    wall = perf_counter() - start
    return {"attempted": attempted, "failures": failures, "lat_ok": lat_ok,
            "norm_ok": norm_ok, "probes": probes,
            "wall": wall, "path_steps": path_steps, "cache_delta": delta,
            "lat_traced": lat_traced, "lat_plain": lat_plain}


def end_to_end(run: dict, setup: list, workload: str) -> dict:
    """Every end-to-end metric, with units and sample counts."""
    lat = sorted(run["lat_ok"])
    n = len(lat)
    out = {
        "setup_s": {"value": statistics.median(norm for _, norm in setup),
                    "unit": "s", "n": len(setup)},
        "setup_raw_s": {"value": statistics.median(raw for raw, _ in setup),
                        "unit": "s", "n": len(setup)},
        "ops_per_s": {"value": n / run["wall"], "unit": "1/s", "n": n},
        "ops_per_s_norm": {"value": n / sum(run["norm_ok"]) if run["norm_ok"] else None,
                           "unit": "1/s", "n": len(run["norm_ok"])},
        "op_p50_s": {"value": statistics.median(lat) if lat else None,
                     "unit": "s", "n": n},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MB"},
        "fail_ratio": {"value": len(run["failures"]) / run["attempted"],
                       "unit": "ratio", "n": run["attempted"]},
    }
    if n >= TAIL_MIN_OPS:
        # the highest percentile with at least ten samples above it
        out["op_tail_s"] = {"value": lat[n - 11], "unit": "s",
                            "percentile": 100.0 * (n - 10) / n, "n": n}
    if run["probes"]:
        import hostspeed
        out["host_slowdown"] = {
            "value": statistics.median(run["probes"]) / hostspeed.REFERENCE_S,
            "unit": "ratio", "n": len(run["probes"])}
    if workload == "mc-oracle":
        out["path_steps_per_s"] = {"value": run["path_steps"] / run["wall"],
                                   "unit": "1/s", "n": run["path_steps"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    problem = checkout_problem()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    workloads = bootstrap()
    if args.setup_probe:
        return setup_probe(args, workloads)
    import penmix
    import spans

    setup = [time_setup(args) for _ in range(SETUP_PROBES)]
    reference = load_reference()
    if reference["seed"] != workloads.DEFAULT_SEED:
        raise RuntimeError("reference.json was recorded at another default seed")
    workdir = _workdir(args)
    try:
        wl = workloads.WORKLOADS[args.workload](
            ROOT, workdir, args.seed, reference["ops"].get(args.workload))
        wl.setup()
        tracer = spans.Tracer(penmix) if args.trace else None
        run = measure(wl, args.seconds, tracer, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(), "setup_samples_s": {"raw": [raw for raw, _ in setup],
                                  "normalized": [norm for _, norm in setup]},
              "failures": run["failures"][:5]}
    e2e = end_to_end(run, setup, args.workload)
    if args.trace:
        plain, traced = run["lat_plain"], run["lat_traced"]
        plain_rate = len(plain) / sum(plain) if plain else 0.0
        traced_rate = len(traced) / sum(traced) if traced else 0.0
        gap = (plain_rate - traced_rate) / plain_rate if plain_rate else 0.0
        metrics, bases = spans.layer_metrics(tracer, len(traced), run["cache_delta"],
                                             wl.mesh_steps, gap)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_file)
        report.update({"bases": bases, "spans_file": str(spans_file.relative_to(ROOT)),
                       "tracing": {"untraced_ops_per_s": plain_rate,
                                   "traced_ops_per_s": traced_rate,
                                   "ops_per_s_gap": gap}})
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
                   for name in GATED}
    report["end_to_end"] = e2e
    report["diagnostics"] = wl.diagnostics
    failed = len(run["failures"])
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0 and run["attempted"] > 0,
                      "attempted": run["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
