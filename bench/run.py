"""scjarz benchmark: the user-facing jobs of the package, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout (``src/scjarz`` and ``configs/`` next to this
directory); nothing needs installing.  Workloads (closed loop, one client,
one job at a time, each job in a fresh process, ``--threads 1`` and one
BLAS thread):

  identity-harmonic  ``scjarz jarzynski`` on configs/harmonic_ramp.yaml
                     (64x64 nodes); closed-form reference tanh(1/2)/tanh(1).
  identity-quartic   ``scjarz jarzynski`` on configs/quartic_ramp.yaml
                     (48x48 nodes, hbar = 0.5, lam = 0.1); cubic gradient,
                     about 3 Newton iterations per node solve.
  static-quartic     ``scjarz gibbs --prefactor`` on an 81x81 grid over
                     [-3, 3]^2 with the quartic_ramp physics, then
                     ``scjarz oracle``; no real-time flow, no pseudo-work.

The two identity workloads are fixed quadratures, so the seed does not
change their inputs.  For static-quartic the seed shifts the grid by a
sub-cell offset; seed 0 is the unshifted grid.

A run first measures set-up in separate processes, then runs jobs until
``--seconds`` have passed (at least one).  With ``--trace 0`` it reports
the end-to-end metrics (medians over the run's samples); with ``--trace 1``
it runs one untraced and one traced job and reports the per-layer metrics
of the traced one, whose spans stay in bench/_work/<workload>.trace.json
until the next traced run of that workload.  Every job passes the correctness gates or counts as
failed; artifacts must be byte-identical to those of earlier runs of the
same inputs and source (kept under bench/_work/state), traced or not.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
gate passed, 1 when one failed, 2 when the checkout is incomplete (no
result is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
sys.path.insert(0, str(BENCH))

from tracing import LAYER_METRICS, REPEATABLE, layer_metrics  # noqa: E402

# each run stops before this, leaving margin under the 180 s run limit
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 9
HARMONIC_RATIO = math.tanh(0.5) / math.tanh(1.0)

WORKLOADS = {
    "identity-harmonic": {"config": "configs/harmonic_ramp.yaml",
                          "cli": ["jarzynski"]},
    "identity-quartic": {"config": "configs/quartic_ramp.yaml",
                         "cli": ["jarzynski"]},
    "static-quartic": {"config": "configs/quartic_ramp.yaml",
                       "cli": ["gibbs --prefactor", "oracle"],
                       "grid": (-3.0, 3.0, 81)},
}

END_TO_END = {
    "job_s": "s",
    "job_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class IncompleteCheckout(Exception):
    pass


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_inputs(workload: str, seed: int, run_dir: Path) -> Path:
    """Write the workload's config for this seed and return its path."""
    spec = WORKLOADS[workload]
    text = (ROOT / spec["config"]).read_text()
    if "grid" in spec:
        import yaml

        lo, hi, n = spec["grid"]
        cell = (hi - lo) / (n - 1)
        rng = random.Random(seed)
        dp, dq = (0.0, 0.0) if seed == 0 else (rng.random() * cell,
                                                rng.random() * cell)
        data = yaml.safe_load(text)
        data.setdefault("run", {})["grid"] = {
            "p_min": lo + dp, "p_max": hi + dp, "n_p": n,
            "q_min": lo + dq, "q_max": hi + dq, "n_q": n}
        text = yaml.safe_dump(data, sort_keys=True)
    path = run_dir / "input.yaml"
    path.write_text(text)
    return path


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "scjarz").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "loadavg_start": os.getloadavg(),
    }


def job_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", SCJARZ_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(config: Path, out: Path, cli: list, deadline: float,
          setup_only=False, trace=False) -> dict:
    """Run job.py in a fresh process; returns its result or {"error": ...}."""
    out.mkdir(parents=True, exist_ok=True)
    result_path = out.parent / f"{out.name}.result.json"
    cmd = [sys.executable, str(BENCH / "job.py"), "--config", str(config),
           "--out", str(out), "--result", str(result_path), "--src", str(SRC)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", str(out.parent / f"{out.name}.trace.json")]
    for command in cli:
        cmd += ["--cli", command]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"error": "no time left in the run"}
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)],
                              env=job_env(), stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"job exceeded {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.is_file():
        return {"error": f"job process exited with {proc.returncode}"}
    result = json.loads(result_path.read_text())
    if trace:
        result["trace"] = json.loads(
            (out.parent / f"{out.name}.trace.json").read_text())
    return result


def artifact_hashes(out: Path) -> dict:
    return {p.name: _sha256(p.read_bytes()) for p in sorted(out.iterdir())
            if p.is_file()}


def check_job(workload: str, result: dict, out: Path) -> tuple[list, int]:
    """Correctness gates of one job; returns (broken gates, failed nodes)."""
    if "error" in result:
        return [result["error"]], 0
    broken = []
    if any(code != 0 for code in result["exit_codes"]):
        broken.append(f"exit codes {result['exit_codes']}")
    failed_nodes = 0
    if workload.startswith("identity-"):
        path = out / "jarzynski.json"
        if not path.is_file():
            return broken + ["jarzynski.json missing"], 0
        report = json.loads(path.read_text())
        failed_nodes = len(report["failures"])
        if report["failures"]:
            broken.append(f"{failed_nodes} failed quadrature nodes")
        if workload == "identity-harmonic":
            for side in ("lhs", "rhs"):
                rel = abs(report[side] - HARMONIC_RATIO) / HARMONIC_RATIO
                if not rel <= 1e-6:
                    broken.append(f"{side} off tanh(1/2)/tanh(1) by {rel:.3e}")
        if not report["residual"] <= 1e-3:
            broken.append(f"residual {report['residual']:.3e} > 1e-3")
        mismatch = result["bulk_work_mismatch"]
        if mismatch is None or not mismatch <= 1e-6:
            broken.append(f"bulk path/endpoint work mismatch {mismatch} > 1e-6")
    else:
        gibbs, oracle = out / "gibbs.csv", out / "oracle.json"
        if not gibbs.is_file() or not oracle.is_file():
            return broken + ["gibbs.csv or oracle.json missing"], 0
        rows = gibbs.read_text().splitlines()[2:]
        failed_nodes = sum(1 for row in rows if not row.endswith(",ok"))
        if failed_nodes or not rows:
            broken.append(f"{failed_nodes} of {len(rows)} grid rows not ok")
        report = json.loads(oracle.read_text())
        for key in ("density_linf_gap", "pseudo_hamiltonian_gap"):
            if not report[key] < 0.2:
                broken.append(f"oracle {key} {report[key]:.3e} >= 0.2")
    return broken, failed_nodes


def summarize(values: list) -> str:
    """Median, plus the highest percentile with >= 10 samples beyond it."""
    s = sorted(values)
    n = len(s)
    text = f"median {statistics.median(s):.6g} over n={n}"
    if n >= 11:
        text += f", p{100.0 * (n - 10) / n:.0f} {s[n - 11]:.6g}"
    else:
        text += ", no tail percentile (needs n >= 11)"
    return text


class State:
    """Artifact hashes and traced counts of earlier runs with the same key."""

    def __init__(self, workload: str, config: Path):
        spec = WORKLOADS[workload]
        key = _sha256(json.dumps([workload, config.read_text(), spec["cli"],
                                  source_hash()]).encode())
        self.path = WORK / "state" / f"{workload}-{key[:20]}.json"
        self.data = (json.loads(self.path.read_text())
                     if self.path.is_file() else {})

    def check(self, field: str, value: dict) -> list:
        """Compare with the stored value, storing it when there is none."""
        stored = self.data.get(field)
        if stored is None:
            self.data[field] = value
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, sort_keys=True, indent=1))
            os.replace(tmp, self.path)
            return []
        return [f"{field} {k}: {value.get(k)} != earlier {stored.get(k)}"
                for k in sorted(set(stored) | set(value))
                if stored.get(k) != value.get(k)]


def traced_job(workload, config, cli, run_dir, deadline, state, untraced):
    """One traced job; returns (broken gates, per-layer metrics).

    ``untraced`` is a list of (result, out dir) of this run's passing
    untraced jobs: the traced artifacts must equal theirs byte for byte.
    """
    out = run_dir / "traced"
    res = spawn(config, out, cli, deadline, trace=True)
    broken, failed_nodes = check_job(workload, res, out)
    if not untraced:
        broken.append("no passing untraced job to compare with")
    if broken:
        return broken, {}
    ref = artifact_hashes(untraced[0][1])
    got = artifact_hashes(out)
    if got != ref:
        broken.append(f"traced artifacts differ from untraced: {got} != {ref}")
    layer = layer_metrics(res["trace"])
    layer["stationary.failed_nodes"] = failed_nodes
    for key in ("max_work_mismatch", "bulk_work_mismatch"):
        layer[f"pseudowork.{key}"] = res[key] or 0.0
    base = statistics.median(r["job_s"] for r, _ in untraced)
    layer["trace.overhead_s"] = res["job_s"] - base
    print(f"trace: traced job_s {res['job_s']:.4f} s, untraced median "
          f"{base:.4f} s, {len(res['trace']['spans'])} spans, missing "
          f"targets {res['trace_missing']}")
    if workload == "static-quartic":
        for name in ("dynamics.real_point_steps", "pseudowork.time_nodes"):
            if layer[name] != 0:
                broken.append(f"{name} = {layer[name]} on a workload "
                              "without real-time flow")
    broken += state.check("traced_counts", {k: layer[k] for k in REPEATABLE})
    # keep the spans of the latest traced run of each workload for inspection
    (run_dir / "traced.trace.json").replace(WORK / f"{workload}.trace.json")
    return broken, {k: {"value": layer[k], "unit": unit}
                    for k, (unit, _) in LAYER_METRICS.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ROOT / WORKLOADS[workload]["config"]
    if not (SRC / "scjarz" / "cli.py").is_file() or not base.is_file():
        raise IncompleteCheckout(
            f"{SRC / 'scjarz'} or {base} missing; run from a scjarz checkout")
    run_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        config = make_inputs(workload, seed, run_dir)
        print("env " + json.dumps(environment(), sort_keys=True))
        cli = WORKLOADS[workload]["cli"]
        state = State(workload, config)

        # untimed warm-up: byte-compiles the package on a fresh checkout
        spawn(config, run_dir / "warmup", cli, deadline, setup_only=True)
        setups = []
        for k in range(SETUP_PROBES):
            res = spawn(config, run_dir / f"setup{k}", cli, deadline,
                        setup_only=True)
            if "setup_s" in res:
                setups.append(res["setup_s"])

        problems, jobs, passed = [], 0, []
        start = time.monotonic()
        while jobs == 0 or time.monotonic() - start < seconds:
            out = run_dir / f"job{jobs}"
            res = spawn(config, out, cli, deadline)
            jobs += 1
            print(f"{out.name}: " + json.dumps(res, sort_keys=True))
            broken, _ = check_job(workload, res, out)
            if not broken:
                broken = state.check("artifacts", artifact_hashes(out))
            problems += [f"{out.name}: {b}" for b in broken]
            if not broken:
                passed.append((res, out))
            if "error" in res:
                break
        attempted, failed = jobs, jobs - len(passed)

        metrics = {}
        setups += [res["setup_s"] for res, _ in passed]
        for name, unit in END_TO_END.items():
            vals = setups if name == "setup_s" else [r[name] for r, _ in passed]
            if vals:
                print(f"e2e {name}: {summarize(vals)} {unit}")
                metrics[name] = {"value": statistics.median(vals), "unit": unit}

        if trace:
            broken, metrics = traced_job(workload, config, cli, run_dir,
                                         deadline, state, passed)
            attempted += 1
            failed += bool(broken)
            problems += [f"traced: {b}" for b in broken]
            for name, m in metrics.items():
                print(f"layer {name}: {m['value']:.10g} {m['unit']}")

        for p in problems:
            print(f"GATE FAILED {p}")
        correct = failed == 0 and bool(metrics)
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except IncompleteCheckout as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
