"""The three benchmark workloads, driven through koopmetrics' public API.

Each workload has:

- ``setup(seed)``: input generation, timed as ``setup_s`` (median over
  ``setup_repeats``); returns the decomposition time when set-up is where the
  workload identifies its models, else None;
- ``warm()``: untimed full-size calls, so BLAS threads, LAPACK workspaces
  and the allocator are warm before the clock starts;
- ``run_pass(pause)``: one closed-loop pass over the timed operations; the
  output checks run afterwards inside ``pause()``;
- ``self_comparisons()``: each system compared with itself, once, after the
  timed passes; see README.md for why these are not timed operations;
- ``sizes`` for the run metadata and ``op_spans``, the traced functions that
  make up its timed operations.

Times are CPU seconds of this process (``clock``, BLAS on one thread; see
README.md). Every call goes through a module attribute (``cli.main``,
``conjugacy.compare``, ...) so the tracer can intercept it. README.md says
why each workload exists and how its sizes were chosen.
"""
from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from koopmetrics import benchmark, cli, conjugacy, hopper, io, koopman

import checks

clock = time.process_time


@dataclass
class PassResult:
    """Timings of one pass and the outcome of every operation in it."""

    identify_s: float
    compare_s: float
    compares: int
    ops: list[tuple[str, list[str]]] = field(default_factory=list)
    model_bytes: int = 0

    @property
    def failures(self) -> list[str]:
        return [f"{op}: {msg}" for op, msgs in self.ops for msg in msgs]


def _cli(argv: list[str]) -> tuple[int | None, str]:
    """Run the CLI in process; return (exit code, captured stderr).

    An exception the CLI lets escape is a failed operation: (None, message).
    """
    err = stdio.StringIO()
    with contextlib.redirect_stdout(stdio.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            return None, f"raised {type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


class HoppingFlow:
    """README flow: simulate nlm / lm / dc, identify each, compare pairs via the CLI."""

    name = "hopping-flow"
    steps = (
        ("identify", "nlm"), ("identify", "lm"), ("compare", ("nlm", "lm")),
        ("identify", "dc"), ("compare", ("lm", "dc")), ("compare", ("nlm", "dc")),
    )
    setup_repeats = 9
    op_spans = ("cli.main",)

    def __init__(self, workdir: str, tiny: bool = False):
        self.workdir = workdir
        self.train_steps = 60 if tiny else 300
        self.sim_steps = 200 if tiny else hopper.HopperConfig.steps
        self.sizes = {
            "n_psi": self.train_steps + 5,
            "T": self.train_steps,
            "sim_steps": self.sim_steps,
        }

    def _path(self, kind: str, act: str) -> str:
        return os.path.join(self.workdir, f"{act}_{kind}")

    def setup(self, seed: int) -> float | None:
        rng = np.random.default_rng(seed)
        y_init = 1.12 + rng.uniform(-0.01, 0.01)
        self.sizes["y_init"] = y_init
        cfg = hopper.HopperConfig(steps=self.sim_steps, y_init=y_init)
        nlm = hopper.simulate_hopping(cfg)
        traces = {
            "nlm": nlm,
            "lm": hopper.simulate_hopping(replace(cfg, actuator="lm")),
            "dc": hopper.simulate_hopping(
                replace(cfg, actuator="dc", reference=hopper.reference_from_trace(nlm))
            ),
        }
        for act, trace in traces.items():
            primary = hopper.export_primary(trace, hopper.morphological_computation(trace))
            io.write_trajectory_csv(
                self._path("primary.csv", act),
                list(primary.names),
                primary.values,
                t=np.arange(primary.n_steps) * primary.dt,
            )
        return None

    def warm(self) -> None:
        model = self._path("model.json", "warm")
        _cli(["identify", "--input", self._path("primary.csv", "nlm"),
              "--output", model, "--train-steps", str(self.train_steps)])
        _cli(["compare", "--model-a", model, "--model-b", model,
              "--reference", "a", "--output", self._path("report.json", "warm")])

    def run_pass(self, pause) -> PassResult:
        # Identifies and compares alternate so both sample the same stretch of
        # the host's speed; each compare runs once both its models exist.
        times = {"identify": 0.0, "compare": 0.0}
        outcomes = []
        for kind, arg in self.steps:
            if kind == "identify":
                argv = ["identify", "--input", self._path("primary.csv", arg),
                        "--output", self._path("model.json", arg),
                        "--train-steps", str(self.train_steps)]
            else:
                argv = self._compare_argv(*arg)
            start = clock()
            outcomes.append(_cli(argv))
            times[kind] += clock() - start

        compares = sum(kind == "compare" for kind, _ in self.steps)
        result = PassResult(times["identify"], times["compare"], compares)
        with pause():
            for (kind, arg), (code, err) in zip(self.steps, outcomes):
                if kind == "identify":
                    msgs = self._identify_checks(arg, code, err)
                    if code == 0:
                        result.model_bytes += os.path.getsize(self._path("model.json", arg))
                    result.ops.append((f"identify {arg}", msgs))
                else:
                    msgs = self._compare_checks(*arg, code, err)
                    result.ops.append((f"compare {'-'.join(arg)}", msgs))
        return result

    def self_comparisons(self) -> list[tuple[str, float, list[str]]]:
        """``compare`` of the lm model with itself: (op, d_max, failed checks)."""
        code, err = _cli(self._compare_argv("lm", "lm"))
        if code != 0:
            return [("compare lm-lm", float("nan"), [f"exit {code}: {err}"])]
        doc = self._report("lm", "lm")
        return [("compare lm-lm", doc["deviations"]["dMax"],
                 checks.report_doc_checks(doc, self_compare=True))]

    def _compare_argv(self, a, b) -> list[str]:
        return ["compare", "--model-a", self._path("model.json", a),
                "--model-b", self._path("model.json", b), "--reference", "a",
                "--output", self._path("report.json", f"{a}-{b}")]

    def _report(self, a, b) -> dict:
        with open(self._path("report.json", f"{a}-{b}"), encoding="utf-8") as handle:
            return json.load(handle)

    def _identify_checks(self, act, code, err) -> list[str]:
        if code != 0:
            return [f"exit {code}: {err}"]
        n = io.load_model(self._path("model.json", act)).model.n_psi
        if n != self.sizes["n_psi"]:
            return [f"model has n_psi={n}, expected {self.sizes['n_psi']}"]
        return []

    def _compare_checks(self, a, b, code, err) -> list[str]:
        if code != 0:
            return [f"exit {code}: {err}"]
        return checks.report_doc_checks(self._report(a, b), self_compare=False)


def _random_diagonalizable(rng, n, radius):
    """K = S D S^-1 with spread eigenvalues and singular values of S in [0.5, 2]."""

    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        d = np.diag(r)
        return q * (d / np.abs(d))

    d = rng.uniform(0.3, radius, size=n) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    s = (unitary() * rng.uniform(0.5, 2.0, size=n)) @ unitary().conj().T
    return s @ np.diag(d) @ np.linalg.inv(s)


class RandomCompare:
    """In-memory compare of random diagonalizable systems at two sizes."""

    name = "random-compare"
    setup_repeats = 1
    op_spans = ("koopman.decompose", "koopman.eigenfunction_trajectories", "conjugacy.compare")
    radius = 0.98

    def __init__(self, workdir: str, tiny: bool = False):
        self.ns = (16, 32) if tiny else (256, 768)
        self.steps = 400
        self.sizes = {"n_psi": list(self.ns), "T": self.steps}

    def _system(self, rng, n):
        k = _random_diagonalizable(rng, n, self.radius)
        psi = rng.standard_normal((n, self.steps)) + 1j * rng.standard_normal((n, self.steps))
        obs = koopman.ObservableMatrix(
            psi=psi, names=tuple(f"g{i}" for i in range(n)), has_constant=False,
            n_primary=n, aux=None, train_snapshots=None, dt=0.1,
        )
        start = clock()
        model = koopman.decompose(k, obs.dt)
        phi = koopman.eigenfunction_trajectories(model, obs)
        return (model, phi), clock() - start

    def setup(self, seed: int) -> float:
        """Returns the decomposition time (the workload's identify_s)."""
        rng = np.random.default_rng(seed)
        self.systems, decompose_s = {}, 0.0
        for n in self.ns:
            (f, tf), (g, tg) = self._system(rng, n), self._system(rng, n)
            self.systems[n] = (f, g)
            decompose_s += tf + tg
        return decompose_s

    def warm(self) -> None:
        f, g = self.systems[self.ns[0]]
        conjugacy.compare(*f, *g, "f")

    def run_pass(self, pause) -> PassResult:
        reports = []
        start = clock()
        for n in self.ns:
            f, g = self.systems[n]
            reports.append((n, *self._compare(f, g)))
        result = PassResult(0.0, clock() - start, len(reports))
        with pause():
            for n, report, error in reports:
                msgs = [error] if error else checks.report_checks(report, n, False)
                result.ops.append((f"compare n={n} f-g", msgs))
        return result

    def self_comparisons(self) -> list[tuple[str, float, list[str]]]:
        """``compare`` of each f with itself: (op, d_max, failed checks)."""
        out = []
        for n in self.ns:
            f, _ = self.systems[n]
            report, error = self._compare(f, f)
            if error:
                out.append((f"compare n={n} f-f", float("nan"), [error]))
            else:
                out.append((f"compare n={n} f-f", report.deviations.d_max,
                            checks.report_checks(report, n, True)))
        return out

    @staticmethod
    def _compare(f, g):
        """(report, None), or (None, message) when compare raises."""
        try:
            return conjugacy.compare(*f, *g, "f"), None
        except Exception as exc:  # a raising compare is a failed operation
            return None, f"{type(exc).__name__}: {exc}"


class AnalyticSweep:
    """The analytic (alpha, beta) benchmark sweep at n = 3, one process."""

    name = "analytic-sweep"
    setup_repeats = 101
    op_spans = ("benchmark.benchmark_system", "benchmark.compare_pair")

    def __init__(self, workdir: str, tiny: bool = False):
        self.grid = (0.5, 1.5, 0.5) if tiny else (0.1, 2.0, 0.05)
        self.sizes = {"n_psi": 3}

    def setup(self, seed: int) -> float | None:
        """The grid, ``x0`` from the seed, and the parameters of every point."""
        rng = np.random.default_rng(seed)
        x0 = (rng.uniform(0.5, 1.5), rng.uniform(0.25, 0.75))
        self.params = benchmark.BenchmarkParams(x0=x0)
        self.alphas = benchmark.grid_values(*self.grid)
        self.betas = benchmark.grid_values(*self.grid)
        self.points = [
            [replace(self.params, alpha=float(a), beta=float(b)) for b in self.betas]
            for a in self.alphas
        ]
        self.sizes.update(x0=list(x0), T=self.params.steps,
                          grid_points=self.alphas.size * self.betas.size)
        return None

    def warm(self) -> None:
        grid = benchmark.grid_values(0.5, 1.5, 0.5)
        benchmark.sweep(grid, grid, self.params, parallel=1)

    def run_pass(self, pause) -> PassResult:
        # identify_s: both analytic systems decomposed at every grid point;
        # compare_s: the sweep itself. One alpha row at a time, alternating,
        # so both sample the same stretch of the host's speed.
        identify_s = compare_s = 0.0
        rows, errors = [], {}
        for a, row_points in zip(self.alphas, self.points):
            start = clock()
            for point in row_points:
                try:
                    benchmark.benchmark_system(point, "f")
                    benchmark.benchmark_system(point, "g")
                except Exception as exc:  # counted against the point's sweep row
                    errors[point.alpha, point.beta] = f"identify: {type(exc).__name__}: {exc}"
            mid = clock()
            rows += benchmark.sweep([a], self.betas, self.params, parallel=1)
            identify_s += mid - start
            compare_s += clock() - mid
        result = PassResult(identify_s, compare_s, len(rows))
        with pause():
            for row in rows:
                msgs = checks.sweep_row_checks(row)
                if (row[0], row[1]) in errors:
                    msgs.append(errors[row[0], row[1]])
                result.ops.append((f"sweep point ({row[0]:g}, {row[1]:g})", msgs))
            result.ops.append(("sweep minimum", checks.sweep_minimum_checks(rows)))
        return result

    def self_comparisons(self) -> list[tuple[str, float, list[str]]]:
        """None: every sweep point compares f with a distinct g (conjugate at (1, 1))."""
        return []


WORKLOADS = {w.name: w for w in (HoppingFlow, RandomCompare, AnalyticSweep)}
