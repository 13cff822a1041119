"""The benchmark's workloads: a closed loop of domain-decomposed solves
and a served open loop, both driven through the program's public API.

Every input is generated here from the workload seed (gauge fields,
right-hand sides, the arrival schedule); the program receives only
those inputs.  Each workload returns the raw per-operation samples and
the number of failed operations; ``perfbench.run`` turns them into
metrics.
"""

from __future__ import annotations

import json
import statistics
import time
import zlib
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from perfbench.spans import BENCH, WAIT, Recorder

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest timed operations a closed-loop run makes, however short.
MIN_OPS = 3
#: A served request is within its latency limit if it finishes in this.
SLO_SECONDS = 2.0
#: Headroom between a solver's own stopping residual and the true
#: residual recomputed in double precision: the two differ by rounding.
RESIDUAL_SLACK = 2.0


def derive_seed(seed: int, *salt) -> int:
    """An independent 32-bit seed for one input, derived from the
    workload seed and a label."""
    key = tuple(zlib.crc32(str(s).encode()) for s in salt)
    return int(np.random.SeedSequence(int(seed), spawn_key=key)
               .generate_state(1)[0])


def reference_operator(gauge, mass, csw):
    """A fresh operator on the reference kernel, for checking outputs."""
    from repro.dirac.wilson import WilsonCloverOperator

    return WilsonCloverOperator(gauge, mass, csw, kernel="numpy_ref")


def true_residual(op, x, b) -> float:
    """``|b - A x| / |b|``."""
    return float(np.linalg.norm(b - op.apply(x)) / np.linalg.norm(b))


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    tts_s: list = field(default_factory=list)
    phases: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


@contextmanager
def _recording(recorder: Recorder | None, root: str):
    """The timed region: traced under ``root`` when a recorder is given."""
    if recorder is None:
        yield
        return
    with recorder.recording(), recorder.span(root, BENCH):
        yield


# ----------------------------------------------------------------------
# closed loop: one client, next solve when the previous one returned
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ClosedLoop:
    name: str
    dims: tuple
    epsilon: float
    mass: float
    csw: float
    tol: float
    options: dict

    def inputs(self, seed: int, k: int = 0):
        """The gauge field and the ``k``-th right-hand side of a seed."""
        from repro.lattice import GaugeField, Geometry, SpinorField

        geom = Geometry(self.dims)
        gauge = GaugeField.weak(geom, epsilon=self.epsilon,
                                rng=derive_seed(seed, "gauge"))
        rhs = SpinorField.random(geom, rng=derive_seed(seed, "rhs", k)).data
        return gauge, rhs

    def request(self, gauge, rhs):
        from repro.comm.grid import ProcessGrid
        from repro.core.api import SolveRequest

        options = dict(self.options)
        if "grid" in options:
            options["grid"] = ProcessGrid(tuple(options["grid"]))
        return SolveRequest(operator="wilson_clover", gauge=gauge, rhs=rhs,
                            mass=self.mass, csw=self.csw, tol=self.tol,
                            **options)

    def stopping_tol(self) -> float:
        """The residual the solver promises: the requested tolerance,
        floored (as GCR-DD does) at four roundings of its outer
        precision."""
        if self.options.get("method") != "gcr-dd":
            return self.tol
        from repro.core.gcrdd import GCRDDConfig

        return max(self.tol, 4.0 * GCRDDConfig().policy.outer.eps)

    def working_set_bytes(self) -> int:
        """Gauge links, clover blocks and ~10 solver vectors, computed
        from array sizes."""
        sites = int(np.prod(self.dims))
        return sites * 16 * (4 * 9 + 2 * 36 + 10 * 12)

    def run(self, seed: int, seconds: float, recorder: Recorder | None = None,
            setup_reps: int = SETUP_REPS) -> Outcome:
        from repro.core.api import solve

        out = Outcome()
        # Each set-up builds the inputs of one right-hand side and solves
        # it once; the timed loop then cycles through those problems, so
        # a run's median does not hang on one problem's iteration count.
        problems = []
        for k in range(setup_reps):
            t0 = time.perf_counter()
            gauge, rhs = self.inputs(seed, k)
            request = self.request(gauge, rhs)
            result = solve(request)
            out.setup_s.append(time.perf_counter() - t0)
            counts = self.counts(result)
            problems.append((rhs, request, counts))
            if k == 0:
                ref_op = reference_operator(gauge, self.mass, self.csw)
            self.check(out, ref_op, rhs, result, counts, counts)

        results = []
        with _recording(recorder, "bench.loop"):
            deadline = time.perf_counter() + seconds
            while len(out.tts_s) < MIN_OPS or time.perf_counter() < deadline:
                request = problems[len(results) % len(problems)][1]
                t0 = time.perf_counter()
                result = solve(request)
                out.tts_s.append(time.perf_counter() - t0)
                results.append(result)
        # Every solve of one problem must repeat the first one's counts.
        for i, result in enumerate(results):
            rhs, _, reference = problems[i % len(problems)]
            self.check(out, ref_op, rhs, result, self.counts(result),
                       reference)
        return out

    @staticmethod
    def counts(result) -> dict:
        tally = result.report.tally
        return {
            "iterations": int(result.iterations),
            "matvecs": int(result.matvecs),
            **{k: int(tally[k]) for k in ("messages", "comm_bytes",
                                          "reductions", "local_reductions")},
        }

    def check(self, out, ref_op, rhs, result, counts, reference) -> None:
        out.attempted += 1
        if not result.converged:
            out.fail(f"{self.name}: solve did not converge")
            return
        res = true_residual(ref_op, result.x, rhs)
        if not res <= RESIDUAL_SLACK * self.stopping_tol():
            out.fail(f"{self.name}: true residual {res:.3e} above "
                     f"{RESIDUAL_SLACK} x {self.stopping_tol():.1e}")
        elif counts != reference:
            out.fail(f"{self.name}: counts {counts} differ from the first "
                     f"solve of this seed {reference}")


# ----------------------------------------------------------------------
# open loop against an in-process SolveService
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeOpenLoop:
    name: str
    dims: tuple
    epsilon: float
    mass: float
    tol: float
    #: (phase, rate in req/s, share of the run's seconds)
    rated: tuple
    #: Requests per burst (at most the service's queue capacity).
    burst: int
    #: Rounds per run, each a slice of every rated phase and one burst;
    #: ``burst_rps`` is the bursts' requests over their drain time.
    bursts: int

    def payload(self, seed: int, rid: str, rhs_seed: int) -> dict:
        return {
            "id": rid,
            "operator": "wilson_clover",
            "method": "bicgstab",
            "mass": self.mass,
            "tol": self.tol,
            "gauge": {"kind": "weak", "dims": list(self.dims),
                      "epsilon": self.epsilon,
                      "seed": derive_seed(seed, "gauge")},
            "rhs": {"kind": "random", "seed": rhs_seed},
        }

    def schedule(self, seed: int, phase: str, rate: float,
                 seconds: float) -> list:
        """Poisson arrival offsets (s) of one phase, from the seed."""
        rng = np.random.default_rng(derive_seed(seed, "arrivals", phase))
        due, t = [], 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= seconds:
                return due
            due.append(t)

    def working_set_bytes(self) -> int:
        sites = int(np.prod(self.dims))
        return sites * 16 * (4 * 9 + 2 * 36 + 4 * 10 * 12)

    def run(self, seed: int, seconds: float, recorder: Recorder | None = None,
            setup_reps: int = SETUP_REPS) -> Outcome:
        from repro.serve.service import SolveService

        out = Outcome()
        service = None
        for rep in range(setup_reps):
            if service is not None:
                service.shutdown(timeout=30)
            t0 = time.perf_counter()
            service = SolveService().start()
            client = _Client(self, service, seed, recorder)
            client.submit_at(f"setup-{rep}", time.perf_counter(), rep)
            client.drain()
            out.setup_s.append(time.perf_counter() - t0)
            client.verify(out)
        # Phases take turns, so that each phase's samples span the whole
        # run and a change of host speed during it moves them alike.
        phases = []
        for k in range(self.bursts):
            phases += [(f"{phase}{k}", self.schedule(
                seed, f"{phase}{k}", rate, share * seconds / self.bursts))
                for phase, rate, share in self.rated]
            phases.append((f"burst{k}", [0.0] * self.burst))
        try:
            rhs_base = 1000
            for phase, due in phases:
                with recorder.recording() if recorder else nullcontext():
                    out.phases[phase] = client.phase(phase, due, rhs_base)
                rhs_base += len(due)
                client.verify(out)
        finally:
            service.shutdown(timeout=60)
        return out


class _Client:
    """One generator-side thread: submits each request when it is due
    and, between due times, collects finished requests oldest first
    (batches complete in arrival order) and encodes them for the wire."""

    def __init__(self, workload, service, seed, recorder):
        self.workload = workload
        self.service = service
        self.seed = seed
        self.recorder = recorder
        self.pending: deque = deque()
        self.done: list = []
        self.errors: list = []
        self.checked = 0

    def _span(self, name, layer, **attrs):
        if self.recorder is None:
            return nullcontext()
        return self.recorder.span(name, layer, **attrs)

    def submit_at(self, rid: str, due: float, rhs_seed: int) -> None:
        payload = self.workload.payload(self.seed, rid, rhs_seed)
        try:
            ticket = self.service.submit(payload)
        except Exception as exc:  # noqa: BLE001 - a typed serve error
            self.errors.append(f"{rid}: submit failed: {exc!r}")
            return
        self.pending.append((rid, due, rhs_seed, ticket))

    def collect(self, until: float | None) -> None:
        """Encode finished requests until ``until`` (``None``: all)."""
        while self.pending:
            rid, due, rhs_seed, ticket = self.pending[0]
            timeout = None
            if until is not None:
                timeout = until - time.perf_counter()
                if timeout <= 0:
                    return
            try:
                with self._span("wait.result", WAIT, request_id=rid):
                    served = ticket.result(timeout)
            except TimeoutError:
                if until is None:
                    raise
                return
            except Exception as exc:  # noqa: BLE001 - a typed serve error
                self.errors.append(f"{rid}: {exc!r}")
                served = None
            self.pending.popleft()
            if served is not None:
                t0 = time.perf_counter()
                with self._span("serve.wire", "serve", request_id=rid):
                    json.dumps(served.to_wire())
                now = time.perf_counter()
                self.done.append({
                    "id": rid, "latency": now - due, "wire": now - t0,
                    "rhs_seed": rhs_seed, "x": served.x,
                    "converged": served.converged,
                    "queue_s": served.queue_seconds,
                    "coalesce_s": served.coalesce_wait_seconds,
                    "solve_s": served.solve_seconds, "lanes": served.lanes,
                })

    def drain(self) -> None:
        self.collect(None)

    def phase(self, name: str, offsets: list, rhs_base: int) -> dict:
        """Run one phase of the open loop; returns its raw samples."""
        first = len(self.done)
        late, depth = [], []
        with self._span(f"bench.{name}", BENCH):
            start = time.perf_counter()
            for i, offset in enumerate(offsets):
                due = start + offset
                self.collect(due)
                with self._span("wait.generator", WAIT):
                    pause = due - time.perf_counter()
                    if pause > 0:
                        time.sleep(pause)
                late.append(time.perf_counter() - due)
                self.submit_at(f"{name}-{i}", due, rhs_base + i)
                depth.append(self.service.queue.depth)
            depth_end = self.service.queue.depth
            self.drain()
            elapsed = time.perf_counter() - start
        half = len(depth) // 2
        return {
            "sent": len(offsets),
            "records": self.done[first:],
            "late_max_s": max(late, default=0.0),
            "depth_end": depth_end,
            # Mean queue depth over the second half of the arrivals less
            # that over the first half.
            "depth_growth": statistics.fmean(depth[half:])
            - statistics.fmean(depth[:half]) if half else 0.0,
            "max_batch": self.service.coalescer.max_batch,
            "elapsed_s": elapsed,
        }

    def verify(self, out: Outcome) -> None:
        """Check every request finished since the last call, then drop
        its solution (so memory does not grow with the request count)."""
        from repro.lattice import GaugeField, Geometry, SpinorField

        w = self.workload
        geom = Geometry(w.dims)
        gauge = GaugeField.weak(geom, epsilon=w.epsilon,
                                rng=derive_seed(self.seed, "gauge"))
        ref_op = reference_operator(gauge, w.mass, 1.0)
        for record in self.done[self.checked:]:
            out.attempted += 1
            x = record.pop("x")
            rhs = SpinorField.random(geom, rng=record["rhs_seed"]).data
            if not record["converged"]:
                out.fail(f"{record['id']}: lane did not converge")
                continue
            res = true_residual(ref_op, x, rhs)
            if not res <= RESIDUAL_SLACK * w.tol:
                out.fail(f"{record['id']}: true residual {res:.3e}")
        self.checked = len(self.done)
        for message in self.errors:
            out.attempted += 1
            out.fail(message)
        self.errors.clear()


WORKLOADS = {
    "gcrdd_overlap": ClosedLoop(
        name="gcrdd_overlap", dims=(8, 8, 8, 8), epsilon=0.25, mass=0.1,
        csw=1.0, tol=1e-8,
        options={"method": "gcr-dd", "grid": (1, 1, 2, 2),
                 "backend": "sequential", "overlap": True},
    ),
    "serve_poisson": ServeOpenLoop(
        name="serve_poisson", dims=(4, 4, 4, 4), epsilon=0.25, mass=0.1,
        tol=1e-5, rated=(("sparse", 3.0, 0.25), ("dense", 10.0, 0.4)),
        burst=60, bursts=5,
    ),
}
