"""GCR-DD: the mixed-precision, domain-decomposed solver of Sec. 8.1.

Assembles the pieces the paper combines:

* a :class:`~repro.multigpu.partition.BlockPartition` matching the GPU
  grid,
* the non-overlapping additive Schwarz preconditioner solving each block
  with a few MR steps in half precision,
* the flexible GCR outer solver (Algorithm 1) with implicit solution
  updates, kmax-bounded Krylov spaces, early-restart parameter delta, and
  the single-half-half precision policy.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.dirac.base import LatticeOperator
from repro.multigpu.partition import BlockPartition
from repro.precision import PrecisionPolicy, SINGLE_HALF_HALF
from repro.precond import PrecondSettings, resolve_precond
from repro.solvers.base import PrecisionWrappedOperator, SolverResult
from repro.solvers.gcr import gcr
from repro.solvers.multirhs import BatchedSolverResult, batched_gcr
from repro.solvers.space import ArraySpace, BatchedArraySpace


def operator_family(op: LatticeOperator) -> str:
    """The :mod:`repro.precond` operator-family tag of an operator."""
    return "wilson" if op.nspin == 4 else "staggered"


@dataclass
class GCRDDConfig:
    """Tunable parameters of the GCR-DD solver.

    Defaults follow the paper's production setup: the additive Schwarz
    preconditioner (``precond="auto"`` resolves to ``"schwarz"``) with 10
    MR steps per block, single-half-half precisions.  ``kmax`` bounds the
    Krylov space ("limited by the computational and memory costs of
    orthogonalization"); ``delta`` is the early-restart tolerance keeping
    the half-precision iterated residual honest.

    The preconditioner knobs are the ``precond_*`` fields, resolved
    through the :mod:`repro.precond` registry; ``precond_overlap`` only
    affects the overlapping entries (``"ras"``, ``"multisplit"``).  The
    pre-registry spellings ``mr_steps=`` / ``omega=`` are accepted as
    deprecated constructor aliases of ``precond_steps=`` /
    ``precond_omega=``.
    """

    precond: str = "auto"
    precond_steps: int = 10
    precond_omega: float = 1.0
    precond_overlap: int = 1
    kmax: int = 16
    delta: float = 0.1
    policy: PrecisionPolicy = field(default_factory=lambda: SINGLE_HALF_HALF)
    tol: float = 1e-8
    maxiter: int = 2000

    def precond_settings(self) -> PrecondSettings:
        """The registry-entry build settings this config describes."""
        return PrecondSettings(
            steps=self.precond_steps,
            omega=self.precond_omega,
            overlap=self.precond_overlap,
            precision=self.policy.preconditioner,
        )


# --- deprecation shims -------------------------------------------------
# The pre-registry constructor kwargs (and attribute reads) map centrally
# onto the precond_* fields with a DeprecationWarning.  The shims are
# attached after class creation so the dataclass machinery neither
# captures the properties as field defaults nor copies the legacy
# spellings through dataclasses.replace().

_LEGACY_CONFIG_FIELDS = {"mr_steps": "precond_steps", "omega": "precond_omega"}

_dataclass_init = GCRDDConfig.__init__


def _config_init(self, *args, **kwargs):
    for old, new in _LEGACY_CONFIG_FIELDS.items():
        if old in kwargs:
            warnings.warn(
                f"GCRDDConfig({old}=...) is deprecated. use {new}=...",
                DeprecationWarning,
                stacklevel=2,
            )
            if new in kwargs:
                raise TypeError(
                    f"GCRDDConfig() got both {old}= and its replacement {new}="
                )
            kwargs[new] = kwargs.pop(old)
    _dataclass_init(self, *args, **kwargs)


def _deprecated_alias(old: str, new: str) -> property:
    def get(self):
        warnings.warn(
            f"GCRDDConfig.{old} is deprecated. use {new}",
            DeprecationWarning,
            stacklevel=2,
        )
        return getattr(self, new)

    return property(get)


GCRDDConfig.__init__ = _config_init
GCRDDConfig.mr_steps = _deprecated_alias("mr_steps", "precond_steps")
GCRDDConfig.omega = _deprecated_alias("omega", "precond_omega")


class GCRDDSolver:
    """Domain-decomposed GCR for a (Wilson-clover or staggered) operator.

    Parameters
    ----------
    op:
        The global operator M (full precision).
    grid:
        The virtual GPU grid; one Schwarz block per rank.
    config:
        Algorithm parameters.
    """

    def __init__(
        self,
        op: LatticeOperator,
        grid: ProcessGrid,
        config: GCRDDConfig | None = None,
    ):
        self.op = op
        self.grid = grid
        self.config = config or GCRDDConfig()
        self.partition = BlockPartition(op.geometry, grid)
        cfg = self.config
        self.space = ArraySpace(site_axes=2 if op.nspin == 4 else 1)
        # One resolution point: the precond registry picks the entry
        # ("auto" -> additive Schwarz, the paper's preconditioner) and
        # builds the live callable from this config's settings.
        self.precond_entry = resolve_precond(
            cfg.precond, operator=operator_family(op)
        )
        self.precond = self.precond_entry.name
        self.preconditioner = self.precond_entry.build(
            op, self.partition, cfg.precond_settings()
        )
        self.inner_op = PrecisionWrappedOperator(
            op.apply, cfg.policy.inner, space=self.space
        )
        self.batched_space = BatchedArraySpace(
            site_axes=2 if op.nspin == 4 else 1
        )
        self._batched_inner_op = PrecisionWrappedOperator(
            op.apply, cfg.policy.inner, space=self.batched_space
        )

    def solve(
        self, b: np.ndarray, x0: np.ndarray | None = None
    ) -> SolverResult | BatchedSolverResult:
        """Solve M x = b.  ``b`` may carry a leading multi-RHS axis, in
        which case all right-hand sides advance through one batched GCR-DD
        (shared restarts, one reduction per Gram-Schmidt coefficient
        set) and a :class:`BatchedSolverResult` is returned."""
        cfg = self.config
        batched = self.op.field_lead(np.asarray(b)) == 1
        if batched and not self.precond_entry.capabilities.batched:
            raise ValueError(
                f"preconditioner {self.precond!r} does not support batched "
                "multi-RHS solves; solve the right-hand sides one at a time"
            )
        solver = batched_gcr if batched else gcr
        result = solver(
            self.op.apply,
            b,
            x0=x0,
            preconditioner=self.preconditioner,
            tol=cfg.tol,
            kmax=cfg.kmax,
            delta=cfg.delta,
            maxiter=cfg.maxiter,
            outer_precision=cfg.policy.outer,
            inner_precision=cfg.policy.inner,
            inner_op=self._batched_inner_op if batched else self.inner_op,
            space=self.batched_space if batched else self.space,
        )
        result.extras["precond"] = self.precond
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GCRDDSolver({self.op.name}, grid={self.grid.label}, "
            f"blocks={self.partition.n_ranks}, policy={self.config.policy.label()})"
        )


class DistributedGCRDDSolver:
    """GCR-DD executing end-to-end on the virtual cluster.

    Where :class:`GCRDDSolver` emulates the algorithm on global arrays
    (mathematically identical, convenient for studies), this variant runs
    the paper's deployment shape literally: fields live as per-rank
    blocks, the outer matvec is the halo-exchanging
    :class:`~repro.multigpu.ddop.DistributedOperator`, inner products are
    genuine global reductions, and the Schwarz preconditioner acts on
    each rank's own block with *zero* inter-rank data movement — the
    communication ledger (CommLog) then shows ghost traffic only from the
    outer Krylov matvecs.

    Currently implemented for Wilson-clover (the paper's GCR-DD target).
    """

    def __init__(
        self,
        gauge,
        mass: float,
        csw: float,
        grid: ProcessGrid,
        boundary=None,
        config: GCRDDConfig | None = None,
        log=None,
        kernel: str = "auto",
        schedule: str = "auto",
        use_split: bool | None = None,
    ):
        from repro.dirac.base import PERIODIC
        from repro.multigpu.ddop import DistributedOperator
        from repro.multigpu.rank_op import _resolve_schedule
        from repro.multigpu.space import DistributedSpace

        boundary = boundary or PERIODIC
        self.config = config or GCRDDConfig()
        cfg = self.config
        # The distributed driver applies the preconditioner rank-locally
        # (zero inter-rank data movement), so only rank-local entries
        # resolve here — same constraint as the SPMD rank programs.
        self.precond_entry = resolve_precond(
            cfg.precond, operator="wilson", spmd=True
        )
        self.precond = self.precond_entry.name
        self.grid = grid
        self.dist_op = DistributedOperator.wilson_clover(
            gauge, mass, csw, grid, boundary=boundary, log=log, kernel=kernel
        )
        # The resolved tier name (never "auto").
        self.kernel = self.dist_op.local_ops[0].kernel
        # ``schedule="split"`` routes every outer matvec through the
        # interior/exterior kernel decomposition of Sec. 6.2 — the
        # execution shape whose gather/comm/interior/exterior spans a
        # trace (docs/observability.md) is meant to exhibit.
        self.schedule = _resolve_schedule(
            "DistributedGCRDDSolver", schedule, False, use_split
        )
        self.dist_op.schedule = self.schedule
        self.partition = self.dist_op.partition
        self.space = DistributedSpace(self.partition, site_axes=2)
        # Per-rank Schwarz blocks: the Dirichlet-cut block operators the
        # split schedule's interior kernel also runs.
        self._blocks = self.dist_op.block_ops
        self._block_space = ArraySpace(site_axes=2)
        self._batched_block_space = BatchedArraySpace(site_axes=2)

    # ------------------------------------------------------------------
    def _precondition(self, xs: list, batched: bool = False) -> list:
        from repro.precond import schwarz_block_solve
        from repro.util.counters import record_operator

        record_operator(self.precond_entry.record_name)
        cfg = self.config
        block_space = self._batched_block_space if batched else self._block_space
        # The block solve is the work the paper keeps entirely on one
        # GPU (Sec. 8.1).  In the batched path one MR sweep relaxes
        # every RHS's block system simultaneously.
        return [
            schwarz_block_solve(
                block_op,
                r_loc,
                steps=cfg.precond_steps,
                omega=cfg.precond_omega,
                precision=cfg.policy.preconditioner,
                space=block_space,
                batched=batched,
                rank=rank,
            )
            for rank, (block_op, r_loc) in enumerate(zip(self._blocks, xs))
        ]

    def solve(self, b, x0=None) -> SolverResult | BatchedSolverResult:
        """Solve M x = b; accepts/returns *global* arrays for convenience
        (scattered/gathered internally).  A leading multi-RHS axis on
        ``b`` selects the batched execution path: one halo message per
        neighbor carries every RHS's faces, and each global reduction
        carries B scalars."""
        import numpy as np

        from repro.multigpu.space import BatchedDistributedSpace

        cfg = self.config
        b = np.asarray(b)
        batched = self.dist_op._field_lead([b]) == 1
        space = (
            BatchedDistributedSpace(
                self.partition, site_axes=2, mailbox=self.space.mailbox
            )
            if batched
            else self.space
        )
        bs = space.scatter(b)
        x0s = None if x0 is None else space.scatter(np.asarray(x0))

        def inner_op(xs):
            out = self.dist_op.apply(space.convert(xs, cfg.policy.inner))
            return space.convert(out, cfg.policy.inner)

        if self.precond == "none":
            preconditioner = None
        else:
            def preconditioner(xs):
                return self._precondition(xs, batched=batched)

        solver = batched_gcr if batched else gcr
        result = solver(
            self.dist_op.apply,
            bs,
            x0=x0s,
            preconditioner=preconditioner,
            tol=cfg.tol,
            kmax=cfg.kmax,
            delta=cfg.delta,
            maxiter=cfg.maxiter,
            outer_precision=cfg.policy.outer,
            inner_precision=cfg.policy.inner,
            inner_op=inner_op,
            space=space,
        )
        result.x = space.asarray(result.x)
        result.extras["precond"] = self.precond
        return result
