"""Rank-local Dirac operator application: the SPMD compute kernels.

One rank's share of a distributed operator application is: halo-exchange
the rank's spinor block, then run the stencil.  This module holds that
per-rank logic once, in two forms:

* the *kernel functions* — one rank's stencil body, with the trace spans
  of Sec. 6.2.  :func:`fused_apply` runs one stencil over the padded
  array (``fused_stencil``).  The split schedule is the paper's
  decomposition: :func:`interior_kernel` runs the rank's Dirichlet-cut
  block operator on the unpadded local field (``interior_kernel``), and
  :func:`exterior_kernel` adds, per partitioned dimension, the hops from
  that dimension's ghost slabs onto the faces they border
  (``exterior_*``) — O(surface) work.  :func:`split_apply` runs them
  after a blocking exchange, :func:`split_apply_overlapped` with the
  exchange in flight behind the interior kernel (Fig. 4).  The
  global-view :class:`~repro.multigpu.ddop.DistributedOperator` loops
  these over all ranks; SPMD rank programs call them for their own rank
  only.
* :class:`RankOperator` — a rank program's local operator endpoint: it
  owns the rank's padded local stencil, its block operator (which is
  also the rank's Schwarz block) and its halo engine, and exposes
  ``apply``/``apply_dagger`` on rank-local (unpadded) fields, the
  per-rank mirror of ``DistributedOperator.apply``.

Cost accounting convention (merged per-rank tallies must equal the
global-view tallies exactly): each rank charges the stencil flops of its
*local* volume — the per-rank shares sum to the global count — while the
single ``dist_*`` operator-application event is charged to rank 0 only.

Constructors (:func:`rank_wilson_clover`, :func:`rank_naive_staggered`)
perform the one-time SPMD gauge ghost exchange through the rank's own
engine.  The clover field cannot be built rank-locally: its field-
strength leaves read corner sites the halo exchange never fills, so the
parent builds it globally and passes each rank its (unpadded) block.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.dirac.base import BoundarySpec, LatticeOperator, PERIODIC
from repro.dirac.staggered import NaiveStaggeredOperator
from repro.dirac.wilson import WilsonCloverOperator
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import DIR_NAMES
from repro.multigpu.layout import HaloLayout, local_boundary
from repro.multigpu.rank_halo import RankHaloEngine
from repro.trace import span
from repro.util.counters import record, record_operator


# ----------------------------------------------------------------------
# one rank's stencil body on a padded array (shared by both models)
# ----------------------------------------------------------------------
def fused_apply(
    op: LatticeOperator, exch, pad: np.ndarray, lead: int, rank: int,
    dagger: bool = False,
) -> np.ndarray:
    """Fused path: one local stencil on the padded array, interior out.

    ``exch`` is anything with ``extract_interior`` — the global
    :class:`~repro.multigpu.halo.HaloExchanger` or a per-rank
    :class:`~repro.multigpu.rank_halo.RankHaloEngine`.
    """
    name = "fused_stencil_dagger" if dagger else "fused_stencil"
    with span(name, kind="interior", rank=rank, stream="compute"):
        applied = op._apply_dagger(pad) if dagger else op._apply(pad)
        return exch.extract_interior(applied, lead=lead)


def interior_kernel(
    block_op: LatticeOperator, x: np.ndarray, rank: int
) -> np.ndarray:
    """The interior kernel: the rank's Dirichlet-cut block operator on
    its unpadded local field.

    Every contribution that needs no ghost data — the site-diagonal
    (mass/clover) terms and all hops between block sites — over the
    local block only.  A hop across a partitioned face reads zero under
    the block's ``"zero"`` boundary, exactly as it reads a zeroed ghost
    in the padded array, so the values are bitwise the padded
    operator's on a zero-ghost copy.
    """
    with span("interior_kernel", kind="interior", rank=rank,
              stream="compute"):
        return block_op._apply(x)


def exterior_kernel(
    op: LatticeOperator, layout: HaloLayout, pad: np.ndarray,
    out: np.ndarray, mu: int, lead: int, rank: int,
) -> None:
    """Dimension ``mu``'s exterior kernel: add to ``out`` the hops from
    the mu ghost slabs of ``pad`` onto the faces they border.

    ``op`` is the rank's padded operator; its ``ghost_hopping`` sees
    only the two ghost slabs (extent = ghost depth along mu) and returns
    the two face contributions, so the work is O(surface).  Sites on
    corners receive updates from several exterior kernels, in the fixed
    dimension order — the data dependency the paper serializes the
    exterior kernels over.
    """
    with span(f"exterior_{DIR_NAMES[mu]}", kind="exterior", rank=rank,
              stream="compute", mu=mu):
        lo, hi = (
            np.ascontiguousarray(pad[layout.ghost_slices(mu, side, lead)])
            for side in (-1, +1)
        )
        hops = op.ghost_hopping(mu, lo, hi, layout.interior_slices())
        for side, hop in zip((-1, +1), hops):
            # Round to the field's precision before adding, as the full
            # stencil's output does (staggered hops carry link precision).
            out[layout.face_slices(mu, side, lead)] += hop.astype(
                out.dtype, copy=False
            )


def split_apply(
    op: LatticeOperator, block_op: LatticeOperator, layout: HaloLayout,
    x: np.ndarray, pad: np.ndarray, lead: int, rank: int,
) -> np.ndarray:
    """Interior/exterior kernel path (Sec. 6.2) for one rank: the
    interior kernel on the local field ``x``, then each partitioned
    dimension's exterior kernel on the exchanged padded array ``pad``."""
    out = interior_kernel(block_op, x, rank)
    for mu in layout.partitioned_dims:
        exterior_kernel(op, layout, pad, out, mu, lead, rank)
    return out


def split_apply_overlapped(
    op: LatticeOperator, block_op: LatticeOperator, engine: RankHaloEngine,
    x: np.ndarray, lead: int, rank: int,
) -> np.ndarray:
    """The overlapped interior/exterior schedule of Fig. 4, live.

    Starts the halo exchange (pre-posted receives, eager sends), runs the
    interior kernel while faces are in flight, then drains each
    partitioned dimension and applies its exterior kernel.  Bit-identical
    to exchange-then-:func:`split_apply`: the interior kernel reads only
    the local field, face scatters land in disjoint ghost slabs, and the
    exterior contributions are added in the same fixed dimension order.
    """
    pending = engine.begin_exchange(x, lead=lead, kind="spinor")
    out = interior_kernel(block_op, x, rank)
    for mu in engine.partitioned_dims:
        pending.complete_dim(mu)
        exterior_kernel(op, engine.layout, pending.padded, out, mu, lead,
                        rank)
    return out


# ----------------------------------------------------------------------
# the SPMD rank operator
# ----------------------------------------------------------------------
def _warn_use_split(owner: str) -> None:
    warnings.warn(
        f"{owner}(use_split=...) is deprecated. use schedule='split' "
        "(use_split=True) or schedule='fused' (use_split=False)",
        DeprecationWarning,
        stacklevel=3,
    )


def _resolve_schedule(
    owner: str, schedule: str, overlap: bool, use_split: bool | None
) -> str:
    """Fold the deprecated ``use_split`` flag and ``overlap`` into a
    concrete ``"fused"``/``"split"`` schedule."""
    if use_split is not None:
        _warn_use_split(owner)
        if schedule == "auto":
            schedule = "split" if use_split else "auto"
    if schedule == "auto":
        # Overlapping halo comm with the interior kernel requires the
        # split interior/exterior path.
        return "split" if overlap else "fused"
    if schedule not in ("fused", "split"):
        raise ValueError(
            f"unknown schedule {schedule!r}; choose 'auto', 'fused' or "
            "'split'"
        )
    if overlap and schedule == "fused":
        raise ValueError(
            "overlap=True runs the interior/exterior split; use "
            "schedule='auto' or 'split'"
        )
    return schedule


class RankOperator:
    """One rank's endpoint of a distributed Dirac operator."""

    def __init__(
        self,
        engine: RankHaloEngine,
        local_op: LatticeOperator,
        name: str,
        flops_per_site: int,
        nspin: int,
        schedule: str = "auto",
        overlap: bool = False,
        use_split: bool | None = None,
    ):
        self.engine = engine
        self.local_op = local_op
        # The interior kernel's operator, which is also the rank's
        # Schwarz block: the padded operator restricted to the local
        # block and cut at its partitioned faces.
        self.block_op = local_op.restrict(
            engine.layout.interior_slices(), engine.partitioned_dims
        )
        self.name = name
        self.flops_per_site = flops_per_site
        self.nspin = nspin
        self.schedule = _resolve_schedule(
            "RankOperator", schedule, overlap, use_split
        )
        self.overlap = overlap
        self.rank = engine.rank
        self.local_volume = engine.layout.partition.local_volume

    @property
    def use_split(self) -> bool:
        """Deprecated alias for ``schedule == "split"``."""
        _warn_use_split("RankOperator")
        return self.schedule == "split"

    def _field_lead(self, x: np.ndarray) -> int:
        expected = 4 + (2 if self.nspin == 4 else 1)
        extra = x.ndim - expected
        if extra in (0, 1):
            return extra
        raise ValueError(
            f"dist_{self.name} expects local field ndim {expected} "
            f"(or +1 batch axis), got shape {x.shape}"
        )

    def _record(self, batch: int = 1) -> None:
        # The collective event is counted once (on rank 0); the flops are
        # each rank's own local-volume share.
        if self.rank == 0:
            record_operator(f"dist_{self.name}")
        record(flops=self.flops_per_site * self.local_volume * batch)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Exchange ghosts, apply this rank's stencil, return the interior
        (or the interior/exterior path under ``schedule="split"``)."""
        lead = self._field_lead(x)
        self._record(batch=x.shape[0] if lead else 1)
        if self.overlap:
            return split_apply_overlapped(
                self.local_op, self.block_op, self.engine, x, lead, self.rank
            )
        pad = self.engine.exchange_spinor(x, lead=lead)
        if self.schedule == "split":
            return split_apply(
                self.local_op, self.block_op, self.engine.layout, x, pad,
                lead, self.rank,
            )
        return fused_apply(self.local_op, self.engine, pad, lead, self.rank)

    def apply_dagger(self, x: np.ndarray) -> np.ndarray:
        lead = self._field_lead(x)
        self._record(batch=x.shape[0] if lead else 1)
        pad = self.engine.exchange_spinor(x, lead=lead)
        return fused_apply(
            self.local_op, self.engine, pad, lead, self.rank, dagger=True
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


# ----------------------------------------------------------------------
# constructors (one-time SPMD gauge ghost exchange per rank)
# ----------------------------------------------------------------------
def rank_wilson_clover(
    engine: RankHaloEngine,
    gauge_block: np.ndarray,
    mass: float,
    csw: float,
    boundary: BoundarySpec = PERIODIC,
    clover_block: np.ndarray | None = None,
    kernel: str = "auto",
    schedule: str = "auto",
    overlap: bool = False,
    use_split: bool | None = None,
) -> RankOperator:
    """Build this rank's Wilson-clover endpoint from its (unpadded) local
    gauge block; ``clover_block`` is the rank's slice of the *globally
    built* clover field (required when ``csw != 0`` — see module
    docstring)."""
    if csw != 0.0 and clover_block is None:
        raise ValueError(
            "csw != 0 needs the parent-built clover block: clover leaves "
            "read corner sites the halo exchange never fills"
        )
    layout = engine.layout
    local_bc = local_boundary(boundary, engine.partitioned_dims)
    padded_links = engine.exchange_gauge(gauge_block)
    padded_clover = None
    if clover_block is not None:
        shape = tuple(reversed(layout.padded_dims)) + clover_block.shape[4:]
        padded_clover = np.zeros(shape, dtype=clover_block.dtype)
        padded_clover[layout.interior_slices()] = clover_block
    local_op = WilsonCloverOperator(
        GaugeField(layout.padded_geometry, padded_links),
        mass=mass,
        csw=csw,
        boundary=local_bc,
        clover=padded_clover,
        kernel=kernel,
    )
    return RankOperator(
        engine, local_op, local_op.name, local_op.flops_per_site, 4,
        schedule=schedule, overlap=overlap, use_split=use_split,
    )


def rank_naive_staggered(
    engine: RankHaloEngine,
    gauge_block: np.ndarray,
    mass: float,
    boundary: BoundarySpec = PERIODIC,
    kernel: str = "auto",
    schedule: str = "auto",
    overlap: bool = False,
    use_split: bool | None = None,
) -> RankOperator:
    """Build this rank's naive-staggered endpoint from its (unpadded)
    local gauge block; the padded origin keeps the Kogut-Susskind phases
    globally consistent."""
    layout = engine.layout
    local_bc = local_boundary(boundary, engine.partitioned_dims)
    padded = engine.exchange_gauge(gauge_block)
    local_op = NaiveStaggeredOperator(
        GaugeField(layout.padded_geometry, padded),
        mass=mass,
        boundary=local_bc,
        origin=layout.padded_origin(engine.rank),
        kernel=kernel,
    )
    return RankOperator(
        engine, local_op, local_op.name, local_op.flops_per_site, 1,
        schedule=schedule, overlap=overlap, use_split=use_split,
    )


__all__ = [
    "RankOperator",
    "exterior_kernel",
    "fused_apply",
    "interior_kernel",
    "rank_naive_staggered",
    "rank_wilson_clover",
    "split_apply",
    "split_apply_overlapped",
]
