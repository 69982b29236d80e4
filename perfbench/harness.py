"""Runs one workload: set-up, timed ops, gates, digest, metrics, run record."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# The machine's speed swings by 30-50 % over windows of 10-20 s, from load
# outside this process. A fixed kernel that does not touch fcmac is timed
# between ops every CALIBRATE_EVERY_S, and each op's latency is scaled by
# KERNEL_NOMINAL_S over the kernel's time around that op: the latencies are
# reported at the speed at which the kernel takes KERNEL_NOMINAL_S (its time
# on a 2-vCPU Intel Xeon VM when otherwise idle). Raw latencies are in the
# run record.
CALIBRATE_EVERY_S = 0.2
KERNEL_NOMINAL_S = 2.0e-3
_KERNEL_VECTOR = np.random.default_rng(0).random(20000)
_KERNEL_MATRIX = np.random.default_rng(1).random((48, 48))
_KERNEL_TUPLE = tuple((i, str(i)) for i in range(200))


def calibration_seconds() -> float:
    """Time of a fixed kernel that mixes the kinds of work fcmac does: a
    Python integer loop, numpy element access, tuple scans and a vector sort."""
    t0 = perf_counter()
    total = 0
    for i in range(15000):
        total += i * i
    for i in range(48):
        row = _KERNEL_MATRIX[i]
        for j in range(0, 48, 2):
            total += _KERNEL_MATRIX[i, j] > 0.5 and row[j] > 0.2
    for i in range(0, 200, 3):
        total += _KERNEL_TUPLE.index((i, str(i)))
    ordered = np.sort(_KERNEL_VECTOR)
    float(ordered @ ordered)
    return perf_counter() - t0


END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
                    "small_ms.p50": "ms", "small_ms.p90": "ms", "large_ms.p50": "ms"}


class Phase:
    """Ops run so far in one phase, with their outcome and output hashes."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, str] = {}
        self.records: list[tuple] = []      # (op, ms, position, calibration) of timed ops
        self.calibrations: list[float] = []
        self._calibrated = float("-inf")

    def run_op(self, op, kind=None) -> float:
        """Execute and gate one op; returns its latency in seconds."""
        self.attempted += 1
        span = self.tracer.op(kind or op.kind) if self.tracer else nullcontext()
        t0 = perf_counter()
        try:
            with span:
                t0 = perf_counter()
                result = self.workload.execute(op)
                dt = perf_counter() - t0
            canonical = self.workload.check(op, result)
        except workloads.GateError as exc:
            self.failures.append(f"{op.key}: {exc}")
            return dt
        except Exception:   # the op raised: record it and keep measuring
            self.failures.append(f"{op.key}: {traceback.format_exc(limit=3)}")
            return perf_counter() - t0
        digest = hashlib.sha256(canonical).hexdigest()
        if self.hashes.setdefault(op.key, digest) != digest:
            self.failures.append(f"{op.key}: output differs from its earlier run")
        return dt

    def timed(self, seconds: float, max_ops: int | None) -> None:
        """Closed loop until the deadline, and at least one op of each kind."""
        wl = self.workload
        cursor = {k: 0 for k in wl.kinds}
        busy = {k: 0.0 for k in wl.kinds}
        pools = {k: [op for op in wl.ops if op.kind == k] for k in wl.kinds}
        position = 0
        deadline = perf_counter() + seconds
        while len(self.records) < len(wl.kinds) or (perf_counter() < deadline
                                   and (max_ops is None or len(self.records) < max_ops)):
            if wl.time_share:   # the kind furthest below its share goes next
                kind = min(wl.kinds, key=lambda k: busy[k] / wl.time_share[k])
                op = pools[kind][cursor[kind] % len(pools[kind])]
                cursor[kind] += 1
            else:
                op = wl.ops[position % len(wl.ops)]
            busy[op.kind] += self._timed_op(op, position)
            position += 1

    def replay(self, records) -> None:
        """Run the ops of another phase's records, in the same order."""
        for op, _, position, _ in records:
            self._timed_op(op, position)

    def _timed_op(self, op, position: int) -> float:
        if perf_counter() - self._calibrated >= CALIBRATE_EVERY_S:
            self.calibrations.append(calibration_seconds())
            self._calibrated = perf_counter()
        dt = self.run_op(op)
        self.records.append((op, 1e3 * dt, position, len(self.calibrations) - 1))
        return dt

    def scaled_records(self) -> list[tuple]:
        """Timed ops with latencies scaled to the nominal machine speed."""
        c = self.calibrations
        speed = [KERNEL_NOMINAL_S / statistics.median(c[max(j - 1, 0):j + 2])
                 for j in range(len(c))]
        return [(op, ms * speed[j], pos, j) for op, ms, pos, j in self.records]

    def complete(self) -> str:
        """Run each pool op not yet seen once (untimed); return the digest."""
        for op in self.workload.ops:
            if op.key not in self.hashes:
                self.run_op(op, kind=f"untimed.{op.kind}")
        h = hashlib.sha256()
        for op in self.workload.ops:
            h.update(f"{op.key}={self.hashes.get(op.key, 'failed')}\n".encode())
        return h.hexdigest()


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import fcmac (numpy included)."""
    code = ("import time; t = time.perf_counter(); import fcmac; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _set_up(wl, seed: int, work: Path, repeats: int) -> tuple[Phase, dict]:
    """Build the inputs and warm up ``repeats`` times. Returns the phase that
    ran the warm-up ops and the set-up record, ``setup_s`` included."""
    phase = Phase(wl)
    rec = {"import_s": [], "build_and_warmup_s": [], "speed": [], "reference_s_excluded": 0.0}
    for r in range(repeats):
        rec["speed"].append(KERNEL_NOMINAL_S / statistics.median(
            calibration_seconds() for _ in range(5)))
        rec["import_s"].append(_import_seconds())
        t0 = perf_counter()
        ref_s = wl.build(seed, work, with_reference=(r == 0))
        for kind in wl.kinds:       # one untimed warm-up op of each kind
            phase.run_op(next(op for op in wl.ops if op.kind == kind))
        rec["build_and_warmup_s"].append(perf_counter() - t0 - ref_s)
        rec["reference_s_excluded"] += ref_s
    rec["setup_s"] = statistics.median(
        (i + b) * v for i, b, v in zip(rec["import_s"], rec["build_and_warmup_s"], rec["speed"]))
    return phase, rec


def _traced(wl, plain: Phase, spans_path: Path) -> tuple[Phase, dict]:
    """Replay ``plain``'s timed ops with every layer wrapped. Returns the
    traced phase and its record: digest, per-kind layer metrics, problems."""
    tracer = layers.Tracer()
    rec = {"wrapped_bindings": tracer.install()}
    phase = Phase(wl, tracer)
    try:
        # same ops in the same order, so the ratio of their times is the overhead
        phase.replay(plain.records)
        counts = tracer.snapshot_counts()
        rec["digest"] = phase.complete()
        tracer.measure_memory = True     # one more op per kind under tracemalloc
        for kind in wl.kinds:
            phase.run_op(next(op for op in wl.ops if op.kind == kind), kind=f"memory.{kind}")
    finally:
        rec["problems"] = [f"binding not restored: {b}" for b in tracer.uninstall()]
    rec["problems"] += tracer.root_problems()
    per_kind = tracer.layer_metrics(len(phase.records), counts)
    for kind, m in per_kind.items():
        peaks = tracer.peak_alloc.values() if kind == "all" else [tracer.peak_alloc.get(kind, 0)]
        m[layers.PEAK_ALLOC] = max(peaks, default=0) / 2**20
    per_kind["all"]["trace.overhead"] = 1.0 - (
        sum(r[1] for r in plain.scaled_records()) / sum(r[1] for r in phase.scaled_records()))
    rec["per_kind_layers"] = per_kind
    tracer.save(spans_path)
    return phase, rec


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def run(name: str, seed: int, seconds: float, trace: bool, *,
        setup_repeats: int = 3, max_ops: int | None = None, workload=None) -> dict:
    """One benchmark run. Returns the run record; ``record["result"]`` is the
    object printed as the last line."""
    import fcmac

    wl = workload if workload is not None else workloads.WORKLOADS[name]()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=OUT))
    try:
        setup, setup_rec = _set_up(wl, seed, work, setup_repeats)
        main = Phase(wl)
        main.timed(seconds / 2 if trace else seconds, max_ops)
        digests = {"untraced": main.complete()}
        phases = [setup, main]
        if trace:
            traced, trace_rec = _traced(wl, main, OUT / f"spans-{name}-seed{seed}.npz")
            digests["traced"] = trace_rec.pop("digest")
            phases.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    scaled = main.scaled_records()
    samples = wl.latencies(scaled)
    cal_ms = [1e3 * c for c in main.calibrations]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "versions": {"fcmac": fcmac.__version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "git_commit": _git_commit(), "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "loop": "closed, one client, in-process calls, no worker threads",
        "instances": wl.describe(),
        "setup": setup_rec,
        "machine_state": {"kernel_ms": {"min": min(cal_ms), "median": statistics.median(cal_ms),
                                        "max": max(cal_ms), "count": len(cal_ms)},
                          "nominal_ms": 1e3 * KERNEL_NOMINAL_S},
        "samples": {k: len(v) for k, v in samples.items()},
        "latency_ms_p50": {k: statistics.median(v) for k, v in samples.items() if v},
        "latency_ms_p50_raw": {k: statistics.median(v)
                               for k, v in wl.latencies(main.records).items() if v},
        "digest": digests,
        "failures": failures[:20],
        "ops_failed": len(failures) / attempted,
    }
    problems = list(failures)
    if not trace:
        metrics = {
            "setup_s": (setup_rec["setup_s"], setup_repeats),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            "ops_per_s": (1e3 * len(scaled) / sum(r[1] for r in scaled), len(scaled)),
            "small_ms.p50": (_percentile(samples["small"], 50), len(samples["small"])),
            "small_ms.p90": (_percentile(samples["small"], 90), len(samples["small"])),
            "large_ms.p50": (_percentile(samples["large"], 50), len(samples["large"])),
        }
        units = END_TO_END_UNITS
    else:
        if digests["traced"] != digests["untraced"]:
            problems.append("traced and untraced digests differ")
        problems += trace_rec.pop("problems")
        record.update(trace_rec)
        metrics = {k: (v, len(traced.records))
                   for k, v in trace_rec["per_kind_layers"]["all"].items()}
        units = layers.per_layer_units()
    record["problems"] = problems[:20]
    record["metrics"] = {k: {"value": metrics[k][0], "unit": units[k], "samples": metrics[k][1]}
                         for k in units}
    record["result"] = {
        "correct": not problems, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": units[k]} for k in units},
    }
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    return record
