"""Distributed (multi-GPU) application of the Dirac operators.

A :class:`DistributedOperator` owns one *local* operator per virtual rank,
built on the padded (ghost-zone) sub-lattice, and applies the global
operator after a halo exchange.  Two execution paths are provided:

* ``apply`` — the fused path: one local stencil per rank on the padded
  array, interior extracted;
* ``apply_split`` — the *interior/exterior kernel* decomposition of
  Sec. 6.2: an interior kernel running each rank's Dirichlet-cut block
  operator (:attr:`~DistributedOperator.block_ops`) on the unpadded local
  field — all the work that can overlap communication — plus one
  exterior kernel per partitioned dimension that adds the hops from that
  dimension's ghost slabs onto the block faces, O(surface) work.  Both
  terms are linear in the field and together are the padded stencil, so
  the two paths agree to rounding; tests assert both equal the serial
  operator.

The per-rank stencil bodies live in :mod:`repro.multigpu.rank_op`
(:func:`~repro.multigpu.rank_op.fused_apply` /
:func:`~repro.multigpu.rank_op.split_apply`) and are shared with the SPMD
rank programs; this class is the global-view driver looping them over
all ranks.

Gauge (and fat/long link) ghost zones are exchanged once at construction,
matching "the gauge field ... must only be transfered once at the
beginning of a solve".
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from repro.comm.grid import ProcessGrid
from repro.comm.mailbox import Mailbox
from repro.comm.traffic import CommLog
from repro.dirac.base import BoundarySpec, LatticeOperator, PERIODIC
from repro.dirac.staggered import AsqtadOperator, NaiveStaggeredOperator
from repro.dirac.wilson import WilsonCloverOperator
from repro.dirac.clover import build_clover_field
from repro.gauge.asqtad import AsqtadLinks, build_asqtad_links
from repro.lattice.fields import GaugeField
from repro.multigpu.halo import HaloExchanger
from repro.multigpu.layout import local_boundary as _local_boundary
from repro.multigpu.partition import BlockPartition
from repro.multigpu.rank_op import _warn_use_split, fused_apply, split_apply
from repro.util.counters import record, record_operator


class DistributedOperator:
    """A Dirac operator executing across the virtual GPU cluster."""

    def __init__(
        self,
        partition: BlockPartition,
        exchanger: HaloExchanger,
        local_ops: list[LatticeOperator],
        name: str,
        flops_per_site: int,
        nspin: int,
    ):
        if len(local_ops) != partition.n_ranks:
            raise ValueError("one local operator per rank required")
        self.partition = partition
        self.exchanger = exchanger
        self.local_ops = local_ops
        self.name = name
        self.flops_per_site = flops_per_site
        self.nspin = nspin
        # ``"split"`` routes ``apply`` through the interior/exterior
        # kernel decomposition (the execution shape the paper actually
        # schedules, and the one whose spans a trace should show) instead
        # of the fused single-stencil path.  Both agree to rounding.
        self.schedule = "fused"

    @cached_property
    def block_ops(self) -> list[LatticeOperator]:
        """Per-rank interior-kernel operators of the split path: each
        padded local operator restricted to its block and cut at the
        partitioned faces (built on first use)."""
        sites = self.exchanger.interior_slices()
        cut = self.exchanger.partitioned_dims
        return [op.restrict(sites, cut) for op in self.local_ops]

    @property
    def use_split(self) -> bool:
        """Deprecated alias for ``schedule == "split"``."""
        _warn_use_split("DistributedOperator")
        return self.schedule == "split"

    @use_split.setter
    def use_split(self, value: bool) -> None:
        _warn_use_split("DistributedOperator")
        self.schedule = "split" if value else "fused"

    # ------------------------------------------------------------------
    # constructors for each discretization
    # ------------------------------------------------------------------
    @classmethod
    def wilson_clover(
        cls,
        gauge: GaugeField,
        mass: float,
        csw: float,
        grid: ProcessGrid,
        boundary: BoundarySpec = PERIODIC,
        mailbox: Mailbox | None = None,
        log: CommLog | None = None,
        halo_precision=None,
        kernel: str = "auto",
        use_projection: bool | None = None,
    ) -> "DistributedOperator":
        if use_projection is not None:
            warnings.warn(
                "DistributedOperator.wilson_clover(use_projection=...) is "
                "deprecated. use kernel='numpy' (use_projection=True) or "
                "kernel='numpy_ref' (use_projection=False)",
                DeprecationWarning,
                stacklevel=2,
            )
            if kernel == "auto":
                kernel = "numpy" if use_projection else "numpy_ref"
        partition = BlockPartition(gauge.geometry, grid)
        exchanger = HaloExchanger(
            partition, depth=1, boundary=boundary, mailbox=mailbox, log=log,
            precision=halo_precision, site_axes=2,
        )
        local_bc = _local_boundary(boundary, grid.partitioned_dims)
        # One-time gauge ghost exchange.
        local_links = partition.split(gauge.data, lead=1)
        padded_links = exchanger.exchange_gauge(local_links)
        # The clover field is built globally (its leaves cross block
        # boundaries) and scattered; ghost sites keep zero clover, which is
        # harmless because ghost outputs are discarded.
        padded_clover = None
        if csw != 0.0:
            clover = build_clover_field(gauge, csw)
            local_clover = partition.split(clover)
            padded_clover = []
            for rank, block in enumerate(local_clover):
                shape = (
                    tuple(reversed(exchanger.padded_dims)) + block.shape[4:]
                )
                pad = np.zeros(shape, dtype=block.dtype)
                pad[exchanger.interior_slices()] = block
                padded_clover.append(pad)
        local_ops: list[LatticeOperator] = []
        for rank in range(partition.n_ranks):
            local_gauge = GaugeField(exchanger.padded_geometry, padded_links[rank])
            local_ops.append(
                WilsonCloverOperator(
                    local_gauge,
                    mass=mass,
                    csw=csw,
                    boundary=local_bc,
                    clover=None if padded_clover is None else padded_clover[rank],
                    kernel=kernel,
                )
            )
        proto = local_ops[0]
        return cls(
            partition, exchanger, local_ops, proto.name, proto.flops_per_site, 4
        )

    @classmethod
    def asqtad(
        cls,
        source: "GaugeField | AsqtadLinks",
        mass: float,
        grid: ProcessGrid,
        boundary: BoundarySpec = PERIODIC,
        u0: float = 1.0,
        mailbox: Mailbox | None = None,
        log: CommLog | None = None,
        halo_precision=None,
        kernel: str = "auto",
    ) -> "DistributedOperator":
        links = (
            build_asqtad_links(source, u0=u0)
            if isinstance(source, GaugeField)
            else source
        )
        partition = BlockPartition(links.geometry, grid)
        # The 3-hop Naik term needs depth-3 ghosts — the "decreased locality
        # of the asqtad operator" that makes its strong scaling harder.
        exchanger = HaloExchanger(
            partition, depth=3, boundary=boundary, mailbox=mailbox, log=log,
            precision=halo_precision, site_axes=1,
        )
        local_bc = _local_boundary(boundary, grid.partitioned_dims)
        padded_fat = exchanger.exchange_gauge(partition.split(links.fat, lead=1))
        padded_long = exchanger.exchange_gauge(partition.split(links.long, lead=1))
        local_ops = []
        for rank in range(partition.n_ranks):
            local_links = AsqtadLinks(
                geometry=exchanger.padded_geometry,
                fat=padded_fat[rank],
                long=padded_long[rank],
            )
            local_ops.append(
                AsqtadOperator(
                    local_links,
                    mass=mass,
                    boundary=local_bc,
                    origin=exchanger.padded_origin(rank),
                    kernel=kernel,
                )
            )
        proto = local_ops[0]
        return cls(
            partition, exchanger, local_ops, proto.name, proto.flops_per_site, 1
        )

    @classmethod
    def naive_staggered(
        cls,
        gauge: GaugeField,
        mass: float,
        grid: ProcessGrid,
        boundary: BoundarySpec = PERIODIC,
        mailbox: Mailbox | None = None,
        log: CommLog | None = None,
        kernel: str = "auto",
    ) -> "DistributedOperator":
        partition = BlockPartition(gauge.geometry, grid)
        exchanger = HaloExchanger(
            partition, depth=1, boundary=boundary, mailbox=mailbox, log=log
        )
        local_bc = _local_boundary(boundary, grid.partitioned_dims)
        padded = exchanger.exchange_gauge(partition.split(gauge.data, lead=1))
        local_ops = []
        for rank in range(partition.n_ranks):
            local_gauge = GaugeField(exchanger.padded_geometry, padded[rank])
            local_ops.append(
                NaiveStaggeredOperator(
                    local_gauge,
                    mass=mass,
                    boundary=local_bc,
                    origin=exchanger.padded_origin(rank),
                    kernel=kernel,
                )
            )
        proto = local_ops[0]
        return cls(
            partition, exchanger, local_ops, proto.name, proto.flops_per_site, 1
        )

    # ------------------------------------------------------------------
    # application paths
    # ------------------------------------------------------------------
    def _field_lead(self, xs: list[np.ndarray]) -> int:
        """Leading batch axes (0 or 1) of the per-rank blocks: batched
        multi-RHS fields are ``(B,) + local lattice + site`` arrays."""
        expected = 4 + (2 if self.nspin == 4 else 1)
        extra = xs[0].ndim - expected
        if extra in (0, 1):
            return extra
        raise ValueError(
            f"dist_{self.name} expects local field ndim {expected} "
            f"(or +1 batch axis), got shape {xs[0].shape}"
        )

    def _record(self, batch: int = 1) -> None:
        record_operator(f"dist_{self.name}")
        record(flops=self.flops_per_site * self.partition.geometry.volume * batch)

    def apply(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        """Fused path: exchange ghosts, one local stencil per rank
        (or the split path under ``schedule = "split"``)."""
        if self.schedule == "split":
            return self.apply_split(xs)
        lead = self._field_lead(xs)
        self._record(batch=xs[0].shape[0] if lead else 1)
        padded = self.exchanger.exchange_spinor(xs, lead=lead)
        return [
            fused_apply(op, self.exchanger, pad, lead, rank)
            for rank, (op, pad) in enumerate(zip(self.local_ops, padded))
        ]

    def apply_dagger(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        lead = self._field_lead(xs)
        self._record(batch=xs[0].shape[0] if lead else 1)
        padded = self.exchanger.exchange_spinor(xs, lead=lead)
        return [
            fused_apply(op, self.exchanger, pad, lead, rank, dagger=True)
            for rank, (op, pad) in enumerate(zip(self.local_ops, padded))
        ]

    def apply_split(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        """Interior/exterior kernel path (Sec. 6.2).

        The interior kernel runs each rank's block operator on its local
        field: every contribution available without ghost data (including
        the diagonal/clover terms).  Each partitioned dimension's exterior
        kernel then adds the hops sourced from that dimension's ghost
        slabs onto the faces they border.  Sites on corners receive
        updates from several exterior kernels, reproducing the data
        dependency the paper serializes the exterior kernels over.
        """
        lead = self._field_lead(xs)
        self._record(batch=xs[0].shape[0] if lead else 1)
        padded = self.exchanger.exchange_spinor(xs, lead=lead)
        layout = self.exchanger.layout
        return [
            split_apply(op, block, layout, x, pad, lead, rank)
            for rank, (op, block, x, pad) in enumerate(
                zip(self.local_ops, self.block_ops, xs, padded)
            )
        ]

    def __call__(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        return self.apply(xs)

    # ------------------------------------------------------------------
    def normal(self) -> "DistributedNormalOperator":
        return DistributedNormalOperator(self)

    def scatter(self, global_array: np.ndarray) -> list[np.ndarray]:
        expected = 4 + (2 if self.nspin == 4 else 1)
        lead = global_array.ndim - expected
        return self.partition.split(global_array, lead=lead)

    def gather(self, xs: list[np.ndarray]) -> np.ndarray:
        return self.partition.assemble(xs, lead=self._field_lead(xs))


class DistributedNormalOperator:
    """``M^+ M (+ sigma)`` on distributed fields (two halo exchanges)."""

    def __init__(self, base: DistributedOperator, sigma: float = 0.0):
        self.base = base
        self.sigma = float(sigma)
        self.name = f"dist_{base.name}_normal"

    def apply(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        out = self.base.apply_dagger(self.base.apply(xs))
        if self.sigma:
            out = [o + self.sigma * x for o, x in zip(out, xs)]
        return out

    def shifted(self, sigma: float) -> "DistributedNormalOperator":
        return DistributedNormalOperator(self.base, self.sigma + sigma)

    def __call__(self, xs: list[np.ndarray]) -> list[np.ndarray]:
        return self.apply(xs)
