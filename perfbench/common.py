"""Process control, statistics and run context shared by the workloads."""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
PY = sys.executable

# the program modules the benchmark drives; all must exist in a checkout
CLI_MODULES = {"fit": "repro.cli_fit", "serve": "repro.serving.cli",
               "stream": "repro.cli_stream"}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, failed step)."""


def program_env(**extra: str) -> dict:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def check_program() -> None:
    for module in CLI_MODULES.values():
        path = SRC.joinpath(*module.split(".")).with_suffix(".py")
        if not path.is_file():
            raise BenchError(f"program not found: {path.relative_to(ROOT)} "
                             f"is missing (run from a repository checkout)")


def cli(workload: str, *args: str, traced: Path | None = None) -> list[str]:
    """Argv running a CLI as users do, or under the tracing launcher."""
    if traced is None:
        return [PY, "-m", CLI_MODULES[workload], *args]
    return [PY, str(BENCH / "launch.py"), "--out", str(traced), workload,
            "--", *args]


def now() -> float:
    return time.monotonic()


class Proc:
    """A child process whose JSON stdout lines are timestamped on arrival.

    ``stop()`` signals, reaps with ``wait4`` and records the child's own
    peak RSS, so several children are never confused with each other.
    """

    def __init__(self, argv: list[str], *, name: str, log: Path,
                 env: dict) -> None:
        self.name = name
        self.log = log
        self.events: list[tuple[float, dict]] = []
        self._cond = threading.Condition()
        self._stderr = open(log, "wb")
        self.popen = subprocess.Popen(argv, env=env, cwd=ROOT,
                                      stdout=subprocess.PIPE,
                                      stderr=self._stderr, text=True)
        self.returncode: int | None = None
        self.peak_rss_mb = float("nan")
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.popen.stdout:
            stamp = now()
            try:
                record = json.loads(line)
            except ValueError:
                record = {"text": line.rstrip("\n")}
            with self._cond:
                self.events.append((stamp, record))
                self._cond.notify_all()

    def wait_event(self, pred, timeout: float) -> tuple[float, dict]:
        """First event satisfying ``pred``; raises if the child dies."""
        deadline = now() + timeout
        with self._cond:
            while True:
                for stamp, record in self.events:
                    if isinstance(record, dict) and pred(record):
                        return stamp, record
                if not self._reader.is_alive():
                    raise BenchError(f"{self.name} exited early: "
                                     f"{self.stderr()}")
                left = deadline - now()
                if left <= 0:
                    raise BenchError(f"{self.name}: timed out waiting")
                self._cond.wait(min(left, 0.05))

    def wait(self, timeout: float) -> int:
        """Reap the child (killing it after ``timeout``)."""
        if self.returncode is not None:
            return self.returncode
        deadline = now() + timeout
        while True:
            pid, status, usage = os.wait4(self.popen.pid, os.WNOHANG)
            if pid:
                break
            if now() > deadline:
                os.kill(self.popen.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(self.popen.pid, 0)
                break
            time.sleep(0.01)
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = self.popen.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._reader.join(timeout=5)
        self.popen.stdout.close()
        self._stderr.close()
        return self.returncode

    def stop(self, timeout: float = 10.0) -> int:
        # os.kill, not Popen.send_signal: the latter polls, and a poll
        # that reaps the child loses its rusage to wait4
        if self.returncode is None:
            os.kill(self.popen.pid, signal.SIGTERM)
        return self.wait(timeout)

    def stderr(self) -> str:
        return self.log.read_text(errors="replace").strip()[-600:]


class Children:
    """Every process a run starts; all are stopped on the way out."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.procs: list[Proc] = []
        self.env: dict[str, str] = {}    # extra environment for children

    def start(self, argv: list[str], name: str) -> Proc:
        proc = Proc(argv, name=name, env=program_env(**self.env),
                    log=self.work / f"{name}-{len(self.procs)}.stderr")
        self.procs.append(proc)
        return proc

    def run(self, argv: list[str], name: str, timeout: float) -> Proc:
        proc = self.start(argv, name)
        if proc.wait(timeout) != 0:
            raise BenchError(f"{name} failed ({proc.returncode}): "
                             f"{proc.stderr()}")
        return proc

    def stop_all(self) -> None:
        for proc in self.procs:
            proc.stop(timeout=5.0)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Sample quantile; ``inf`` entries (failed requests) sort last."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return float("nan")
    big = np.finfo(np.float64).max
    value = float(np.quantile(np.minimum(values, big), q, method="linear"))
    return np.inf if value >= big / 2 else value


@dataclass
class Outcome:
    """What a workload run reports back to ``run.py``."""

    metrics: dict = field(default_factory=dict)     # name -> (value, unit)
    # printed with the metrics but too unsteady on a shared host to carry
    # a regression bound, so they stay out of the result line
    unbounded: dict = field(default_factory=dict)   # name -> (value, unit)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)      # (name, ok, detail)
    context: dict = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += 0 if ok else 1

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def program_context() -> dict:
    """Versions and CPU/thread facts, probed in a child like the CLIs."""
    probe = r"""
import ctypes, json, platform, sys
import numpy, scipy
from repro.parallel import available_cpus
threads = {}
for path in sorted({line.split()[-1] for line in open("/proc/self/maps")
                    if "openblas" in line.lower()}):
    lib = ctypes.CDLL(path)
    for sym in ("scipy_openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        if hasattr(lib, sym):
            threads[path.rsplit("/", 1)[-1]] = getattr(lib, sym)()
            break
try:
    import numba
    numba_version = numba.__version__
except ImportError:
    numba_version = None
print(json.dumps({"available_cpus": available_cpus(),
                  "openblas_threads": threads,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numba": numba_version,
                  "machine": platform.machine()}))
"""
    out = subprocess.run([PY, "-c", probe], env=program_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise BenchError(f"cannot import the program: {out.stderr[-400:]}")
    return json.loads(out.stdout)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
