"""Timing, tracing and child-process helpers shared by the workloads.

The benchmark measures ftcalc from outside: every call into a layer is made
by a workload through `Recorder.call`, which times it and, when tracing is
on, records a span around it. Nothing inside `src/` is instrumented.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Child processes are given a hard limit so a hung child cannot hold the run.
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run `python <args>` from the checkout root."""
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)


def child_interval(code: str) -> tuple[float, float]:
    """(start, end) of a fresh interpreter running `code`; raises if it fails."""
    t0 = time.perf_counter()
    proc = run_child(["-c", code])
    t1 = time.perf_counter()
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return t0, t1


def child_json(code: str) -> dict:
    """Run `code` in a fresh interpreter and parse the JSON it prints last."""
    proc = run_child(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ tracing

@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    name: str
    op_id: Optional[int]
    start: float
    end: float


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None):
        if not self.enabled:
            yield
            return
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, op_id, start, end))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")

    def self_times(self, scale: Callable[[float, float], float]) -> dict[str, tuple[float, int]]:
        """Per layer (first dotted component of the span name): self seconds
        and call count. Self time is a span's duration minus the time its
        child spans cover; `scale` turns a (start, end) into seconds."""
        dur = {s.span_id: scale(s.start, s.end) for s in self.spans}
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + dur[s.span_id]
        out: dict[str, tuple[float, int]] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            busy, calls = out.get(layer, (0.0, 0))
            out[layer] = (busy + dur[s.span_id] - child_time.get(s.span_id, 0.0), calls + 1)
        return out

    def durations(self, scale: Callable[[float, float], float]) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(scale(s.start, s.end))
        return out


# ------------------------------------------------------------ machine speed

# Duration of `_speed_kernel` at the reference speed: about its fast-phase
# time on the 2-core Intel Xeon VM the benchmark was defined on.
KERNEL_REF_S = 3.0e-4
SAMPLE_INTERVAL_S = 0.02
# speed samples this far either side of an op are used to rescale it
SPEED_WINDOW_S = 0.1


def _speed_kernel() -> None:
    # Fraction arithmetic, small allocations, a dict and a sort: on the
    # reference machine its slowdown tracked ftcalc's own far better than a
    # plain integer loop did
    xs = [Fraction(j % 7 + 1, j % 5 + 2) for j in range(40)]
    acc = Fraction(0)
    for x in xs:
        acc += x * x
    f = Fraction(1, 3)
    for j in range(12):
        f = f * Fraction(j + 2, j + 3) + Fraction(1, j + 5)
    sorted({j: str(j) for j in range(120)}.values())


class SpeedProbe:
    """Samples the machine's speed while the benchmark runs.

    The CPU speed of the reference machine drifts between about 1.0x and
    1.8x of its best in phases lasting 1-10 s, which is larger than the
    effects the benchmark must resolve. A SIGALRM handler times a fixed
    kernel every SAMPLE_INTERVAL_S; `scale` removes the handler's own time
    from an interval and rescales what is left to the reference speed, by
    the median kernel time within SPEED_WINDOW_S of the interval.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durs: list[float] = []
        self._cum = [0.0]
        self._busy = False
        self._old = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        _speed_kernel()
        d = time.perf_counter() - t
        self.times.append(t)
        self.durs.append(d)
        self._cum.append(self._cum[-1] + d)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, t0: float, t1: float) -> float:
        """Slowdown against the reference speed around [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - SPEED_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + SPEED_WINDOW_S)
        if lo == hi:  # no sample near: use the nearest one
            if not self.durs:
                t = time.perf_counter()
                _speed_kernel()
                return (time.perf_counter() - t) / KERNEL_REF_S
            lo = min(lo, len(self.durs) - 1)
            hi = lo + 1
        return statistics.median(self.durs[lo:hi]) / KERNEL_REF_S

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall seconds in [t0, t1] not spent sampling, the same at the
        reference speed)."""
        i = bisect.bisect_left(self.times, t0)
        j = bisect.bisect_left(self.times, t1)
        raw = (t1 - t0) - (self._cum[j] - self._cum[i])
        return raw, raw / self.factor(t0, t1)


# ---------------------------------------------------------------- recording

@dataclass
class Op:
    name: str
    start: float
    end: float
    ok: bool
    wrong: bool  # returned a value that failed its oracle
    known_defect: bool = False  # listed defect: may raise without making the run incorrect
    detail: str = ""
    raw: float = 0.0  # wall seconds, set by Recorder.finalize
    seconds: float = 0.0  # the same at the reference speed


@dataclass
class Recorder:
    """Issues one call at a time (closed loop), times it and checks it.

    The oracle runs after the timed region. An op that raises, or whose
    oracle rejects the result (or itself raises), is a failure; only an
    oracle rejection marks the output as wrong.
    """

    tracer: Tracer
    probe: Optional[SpeedProbe] = None
    ops: list[Op] = field(default_factory=list)
    _op_id: int = 0

    def call(self, name: str, fn: Callable[[], object], check: Callable[[object], bool],
             known_defect: bool = False):
        self._op_id += 1
        with self.tracer.span(name, self._op_id):
            t0 = time.perf_counter()
            try:
                out = fn()
                raised = None
            except Exception as exc:  # the op's failure is a measured outcome
                out, raised = None, exc
            t1 = time.perf_counter()
        if raised is not None:
            self.ops.append(Op(name, t0, t1, False, False, known_defect,
                               f"{type(raised).__name__}: {raised}"))
            return None
        try:
            ok = bool(check(out))
            detail = "" if ok else "oracle mismatch"
        except Exception as exc:
            ok, detail = False, f"oracle raised {type(exc).__name__}: {exc}"
        self.ops.append(Op(name, t0, t1, ok, not ok, known_defect, detail))
        return out

    def finalize(self) -> None:
        """Fill in each op's durations; call after the probe has stopped."""
        for op in self.ops:
            op.raw, op.seconds = rescale(self.probe, op.start, op.end)


def rescale(probe: Optional[SpeedProbe], t0: float, t1: float) -> tuple[float, float]:
    return probe.scale(t0, t1) if probe else (t1 - t0, t1 - t0)


def run_passes(rec: Recorder, one_pass: Callable[[int], None], seconds: float,
               min_passes: int = 1, max_passes: Optional[int] = None) -> list[range]:
    """Run whole passes: at least `min_passes`, then more while another
    fits in `seconds`, up to `max_passes`. Return the range of `rec.ops`
    indices each pass recorded."""
    passes = []
    t_start = time.perf_counter()
    last_wall = 0.0
    while len(passes) < min_passes or (
            (max_passes is None or len(passes) < max_passes)
            and time.perf_counter() - t_start + last_wall <= seconds):
        n0 = len(rec.ops)
        t0 = time.perf_counter()
        one_pass(len(passes))
        last_wall = time.perf_counter() - t0
        passes.append(range(n0, len(rec.ops)))
    return passes


def pass_seconds(rec: Recorder, passes: list[range], raw: bool = False) -> list[float]:
    """Work seconds of each pass: the sum of its ops' timed durations."""
    return [sum(rec.ops[i].raw if raw else rec.ops[i].seconds for i in r) for r in passes]


# -------------------------------------------------------------------- stats

def median(xs) -> float:
    return statistics.median(xs)


def percentile(xs, q: int) -> float:
    """q-th percentile (1..99) by the Harrell-Davis estimator: a weighted
    mean of all order statistics with Beta(p(n+1), (1-p)(n+1)) weights. A
    run holds few ops of very different sizes (69 checks in a suite pass),
    and a single order statistic jumps between them from run to run."""
    xs = sorted(xs)
    n, p = len(xs), q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction of the incomplete beta function, modified Lentz
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            return h
    return h


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# ------------------------------------------------------------------- header

def _git_commit() -> str:
    try:
        # The ceiling keeps git from searching directories above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(pkg: str) -> str:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "missing"


def run_header(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Machine and software facts recorded with every result, so noisy runs
    can be told apart. The end-of-run load average is added by the caller."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "numpy": _version("numpy"),
        "git_commit": _git_commit(),
    }
