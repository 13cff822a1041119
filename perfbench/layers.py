"""Wrap each layer's public entry points with spans, and read the layer
metrics back from the recorded spans.

Layers are named after the program's modules.  ``install`` replaces the
entry points listed below (module functions in every ``repro`` module
that imported them, methods on their classes); ``uninstall`` puts the
originals back.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import defaultdict

from perfbench.spans import BENCH, WAIT, Recorder

#: Modules imported before patching, so that every ``from x import f``
#: binding of a wrapped function already exists and gets replaced.
_MODULES = (
    "repro.core.api", "repro.core.spmd", "repro.core.gcrdd",
    "repro.comm.backends", "repro.linalg.blas", "repro.solvers.space",
    "repro.solvers.bicgstab", "repro.solvers.gcr", "repro.solvers.multirhs",
    "repro.precond", "repro.precond.rank_local", "repro.dirac.wilson",
    "repro.multigpu.rank_op", "repro.multigpu.rank_halo",
    "repro.metrics.solve_report", "repro.serve.service",
    "repro.serve.coalescer",
)

_BLAS = ("norm2", "cdot", "rdot", "axpy", "caxpy", "xpay", "cxpay", "axpby",
         "caxpby", "scale", "copy", "zero_like", "bnorm2", "bcdot", "brdot",
         "baxpy", "bxpay", "bscale")
_REDUCTIONS = {"norm2", "cdot", "rdot", "bnorm2", "bcdot", "brdot"}


def _solve_attrs(args, kwargs, result) -> dict:
    """Counts the program reports about one ``solve()`` call."""
    tally = result.report.tally if result.report is not None else {}
    iterations = result.iterations
    if not isinstance(iterations, int):
        iterations = int(max(iterations))
    return {
        "iterations": iterations,
        "matvecs": int(result.matvecs),
        "messages": int(tally.get("messages", 0)),
        "comm_bytes": int(tally.get("comm_bytes", 0)),
        "reductions": int(tally.get("reductions", 0)),
        "local_reductions": int(tally.get("local_reductions", 0)),
    }


def _dirac_attrs(kind):
    def describe(args, kwargs, result) -> dict:
        op, x = args[0], args[1]
        lead = op.field_lead(x)
        return {
            "sites": math.prod(x.shape[lead:lead + 4]),
            "lanes": x.shape[0] if lead else 1,
            "itemsize": x.dtype.itemsize,
            "kind": kind,
        }
    return describe


def _blas_attrs(name):
    def describe(args, kwargs, result) -> dict:
        return {"reduction": name in _REDUCTIONS}
    return describe


class Installation:
    """The wrappers one ``install`` call put in place."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._undo: list = []

    def _set(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, value)

    def function(self, module_name, attr, name, layer, describe=None,
                 adapt=None):
        """Wrap a module function wherever a ``repro`` module bound it;
        ``adapt(original)``, if given, is what the span wraps."""
        original = getattr(sys.modules[module_name], attr)
        inner = original if adapt is None else adapt(original)
        wrapper = self.recorder.wrap(inner, name, layer, describe)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) \
                    and vars(mod).get(attr) is original:
                self._set(mod, attr, wrapper)

    def method(self, cls, attr, name, layer, describe=None):
        original = getattr(cls, attr)
        self._set(cls, attr, self.recorder.wrap(original, name, layer,
                                                describe))

    def uninstall(self) -> None:
        for owner, attr, value, had in reversed(self._undo):
            if had:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every layer entry point; returns the handle to undo it."""
    for name in _MODULES:
        importlib.import_module(name)
    from repro.comm.backends import BatonScheduler
    from repro.dirac.wilson import WilsonCloverOperator
    from repro.multigpu.rank_halo import PendingExchange, RankHaloEngine
    from repro.multigpu.rank_op import RankOperator
    from repro.serve.coalescer import Coalescer
    from repro.serve.service import SolveService

    inst = Installation(recorder)
    inst.function("repro.core.api", "solve", "core.solve", "core",
                  _solve_attrs)
    inst.function("repro.metrics.solve_report", "build_solve_report",
                  "metrics.build_solve_report", "metrics")
    for module, fn in (("repro.solvers.bicgstab", "bicgstab"),
                       ("repro.solvers.gcr", "gcr"),
                       ("repro.solvers.multirhs", "batched_bicgstab"),
                       ("repro.solvers.multirhs", "batched_gcr")):
        inst.function(module, fn, f"solvers.{fn}", "solvers")
    inst.function("repro.precond.rank_local", "schwarz_block_solve",
                  "precond.schwarz_block_solve", "precond")
    for fn in _BLAS:
        inst.function("repro.linalg.blas", fn, f"linalg.{fn}", "linalg",
                      _blas_attrs(fn))
    # apply/apply_dagger are the public operator entry points; the rank
    # stencils call _apply and apply_hopping on the local operator.
    for attr, kind in (("apply", "wilson_clover"),
                       ("apply_dagger", "wilson_clover"),
                       ("_apply", "wilson_clover"),
                       ("apply_hopping", "wilson")):
        inst.method(WilsonCloverOperator, attr, f"dirac.{attr}", "dirac",
                    _dirac_attrs(kind))
    for attr in ("apply", "apply_dagger"):
        inst.method(RankOperator, attr, f"multigpu.rank_{attr}", "multigpu")
    for attr in ("exchange", "begin_exchange", "send_faces", "recv_face",
                 "exchange_spinor", "extract_interior", "zero_ghosts",
                 "only_ghost"):
        inst.method(RankHaloEngine, attr, f"comm.{attr}", "comm")
    inst.method(PendingExchange, "complete_dim", "comm.complete_dim", "comm")
    inst.method(BatonScheduler, "wait_for", "wait.baton", WAIT)
    inst.method(Coalescer, "next_group", "wait.coalescer", WAIT)
    inst.method(SolveService, "submit", "serve.submit", "serve")
    # The caller of run_rank_programs waits while the rank threads work.
    inst.function("repro.comm.backends", "run_rank_programs",
                  "wait.spmd_join", WAIT, adapt=_rank_roots(recorder))
    return inst


def _rank_roots(recorder: Recorder):
    """Adapt ``run_rank_programs`` so each rank program runs under a
    benchmark root span on its own thread."""
    def adapt(run_rank_programs):
        def run(program, *args, **kwargs):
            def rank_program(comm, payload):
                with recorder.span("bench.rank_program", BENCH,
                                   rank=comm.rank):
                    return program(comm, payload)
            return run_rank_programs(rank_program, *args, **kwargs)
        return run
    return adapt


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _kernel_cost(entry) -> tuple[float, float]:
    """Computed (flops, bytes) of one recorded dirac call, from the
    ``repro.perfmodel.kernels`` per-site constants."""
    from repro.perfmodel.kernels import KernelModel, OperatorKind

    a = entry.attrs
    model = KernelModel(OperatorKind(a["kind"]),
                        "double" if a["itemsize"] == 16 else "single")
    spinor = model.spinor_bytes_per_site(reuse=1.0)
    fixed = model.gauge_bytes_per_site() + model.clover_bytes_per_site()
    sites = a["sites"]
    return (model.flops_per_site * sites * a["lanes"],
            sites * (fixed + spinor * a["lanes"]))


def layer_metrics(recorder: Recorder) -> dict:
    """Per-layer figures of a traced pass, normalised per ``solve()`` call.

    Returns ``{name: value}``; times are self times unless the name
    says otherwise (``precond.s`` is inclusive).
    """
    spans = recorder.spans
    selfs = recorder.self_times()
    solves = [s for s in spans if s.name == "core.solve"]
    n = max(len(solves), 1)
    by_layer: dict[str, list] = defaultdict(list)
    for entry, own in zip(spans, selfs):
        by_layer[entry.layer].append((entry, own))

    def self_s(layer):
        return sum(own for _, own in by_layer[layer]) / n

    def count(layer, pred=lambda e: True):
        return sum(1 for e, _ in by_layer[layer] if pred(e)) / n

    def solve_sum(key):
        return sum(s.attrs[key] for s in solves) / n

    dirac_s = sum(own for _, own in by_layer["dirac"])
    site_lanes = sum(e.attrs["sites"] * e.attrs["lanes"]
                     for e, _ in by_layer["dirac"])
    flops = bytes_ = 0.0
    for entry, _ in by_layer["dirac"]:
        f, b = _kernel_cost(entry)
        flops += f
        bytes_ += b
    attribution = recorder.attribution()
    busy = attribution["busy_s"]
    return {
        "dirac.apply_calls": count("dirac"),
        "dirac.apply_s": self_s("dirac"),
        "dirac.us_per_site_lane": (1e6 * dirac_s / site_lanes
                                   if site_lanes else 0.0),
        "dirac.gflops_computed": flops / dirac_s / 1e9 if dirac_s else 0.0,
        "dirac.bytes_computed": bytes_ / n,
        "linalg.blas_calls": count("linalg"),
        "linalg.blas_s": self_s("linalg"),
        "linalg.reductions": count("linalg",
                                   lambda e: e.attrs["reduction"]),
        "solvers.iterations": solve_sum("iterations"),
        "solvers.matvecs": solve_sum("matvecs"),
        "solvers.self_s": self_s("solvers"),
        "precond.block_solves": count("precond"),
        "precond.s": sum(e.duration for e, _ in by_layer["precond"]) / n,
        "precond.self_s": self_s("precond"),
        "precond.local_reductions": solve_sum("local_reductions"),
        "multigpu.rank_apply_calls": count(
            "multigpu", lambda e: e.name == "multigpu.rank_apply"),
        "multigpu.rank_apply_self_s": self_s("multigpu"),
        "comm.messages": solve_sum("messages"),
        "comm.bytes": solve_sum("comm_bytes"),
        "comm.global_reductions": solve_sum("reductions"),
        "comm.halo_busy_s": self_s("comm"),
        "core.self_s": self_s("core"),
        "metrics.report_s": self_s("metrics"),
        "bench.unattributed_frac": (attribution["unattributed_s"] / busy
                                    if busy else 0.0),
    }
