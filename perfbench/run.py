"""Engine benchmark: build, interactive serving and index lifecycle.

Usage, from the repository root:

    python3 perfbench/run.py --workload marco-serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own child process with its own Ray session,
under a watchdog. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
``end_to_end`` set of BENCHMARK.json with ``--trace 0`` and the
``per_layer`` set with ``--trace 1``. Human-readable lines go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("marco-serve", "lifecycle")
# a run must end within 180 s; the watchdog leaves room to clean up
WATCHDOG_S = 165
# Keep the session's worker processes instead of killing idle ones and
# starting fresh ones for the next task: on one CPU, a worker start (about
# a second of imports) otherwise lands inside whatever is being timed.
RAY_SYSTEM_CONFIG = {
    "enable_worker_prestart": False,
    "num_workers_soft_limit": 8,
    "idle_worker_killing_time_threshold_ms": 600_000,
}


def declared(trace: bool) -> dict[str, str]:
    """Metric name → unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(metrics: dict[str, float], decl: dict[str, str],
                attempted: int, failed: int, complete: bool) -> dict:
    """The result object. A metric the run produced that BENCHMARK.json
    does not declare is an error in the benchmark itself."""
    extra = sorted(metrics.keys() - decl.keys())
    if extra:
        raise ValueError(f"undeclared metrics: {extra}")
    correct = complete and failed == 0 and metrics.keys() == decl.keys()
    return {
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": decl[k]}
                    for k in decl if k in metrics},
    }


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ----------------------------------------------------------------- child


def child(args) -> int:
    import ray
    import ray.data

    import workloads

    decl = declared(bool(args.trace))
    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(HERE, ".work", f"{wl.name}-{os.getpid()}")
    os.makedirs(work)
    # A one-CPU Ray session: one task or one actor at a time, whatever the
    # machine has, so that runs on hosts of different sizes do alike
    ray.init(num_cpus=1, include_dashboard=False,
             log_to_driver=False, object_store_memory=512 << 20,
             _system_config=RAY_SYSTEM_CONFIG)
    ray.data.DataContext.get_current().enable_progress_bars = False
    run = workloads.Run(wl, args.seed, args.seconds, bool(args.trace), work, _log)
    complete = False
    try:
        run.run()
        complete = True
    except workloads.OpFailed:
        _log(f"{wl.name}: sequence stopped after a failed operation")
    finally:
        ray.shutdown()
        if args.trace:
            tdir = os.path.join(HERE, ".work", "traces")
            os.makedirs(tdir, exist_ok=True)
            run.tracer.dump(os.path.join(tdir, f"{wl.name}-seed{args.seed}.jsonl"))
        shutil.rmtree(work, ignore_errors=True)
    metrics = run.layer if args.trace else run.e2e
    out = result_line(metrics, decl, run.attempted, run.failed, complete)
    for name, m in out["metrics"].items():
        _log(f"{wl.name:17s} {name:48s} {m['value']:14.4f} {m['unit']}")
    _log(f"{wl.name:17s} operations attempted {run.attempted}, failed {run.failed} "
         f"(error rate {run.failed / max(run.attempted, 1):.4f})")
    print(json.dumps(out), flush=True)
    return 0


# ---------------------------------------------------------------- parent


def _session_pids(sid: int) -> list[int]:
    out = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    if int(f.read().rsplit(")", 1)[1].split()[3]) == sid:
                        out.append(int(d))
            except (OSError, IndexError, ValueError):
                continue
    return out


def _stop_session(sid: int) -> None:
    """Kill every process left in the child's session and wait for them."""
    end = time.monotonic() + 10
    while (pids := _session_pids(sid)) and time.monotonic() < end:
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def run_workload(name: str, args) -> int:
    env = dict(os.environ)
    # Ray workers import the package too: they inherit this path from the
    # raylet, which inherits it from the child at ray.init
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.abspath(__file__), "--child", "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WATCHDOG_S)
    except subprocess.TimeoutExpired:
        _stop_session(proc.pid)
        proc.wait()
        shutil.rmtree(os.path.join(HERE, ".work", f"{name}-{proc.pid}"), ignore_errors=True)
        _log(f"{name}: no result within {WATCHDOG_S}s; counted as a failed run")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    _stop_session(proc.pid)
    lines = [ln for ln in out.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines:
        _log(f"{name}: exited with code {proc.returncode} and no result")
        return proc.returncode or 1
    print(lines[-1], flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child(args)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    rc = 0
    for name in names:
        rc = run_workload(name, args) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
