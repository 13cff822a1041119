"""Staggered Dirac operators: naive (1-hop) and improved (asqtad), Eq. (3).

``M = -1/2 D_IS + m`` acting on 1-spin x 3-color fields, with

``D_IS x(x) = sum_mu eta_mu(x) [ F_mu(x) x(x+mu) - F_mu(x-mu)^+ x(x-mu)
                               + L_mu(x) x(x+3mu) - L_mu(x-3mu)^+ x(x-3mu) ]``

where F are the fat links and L the long (Naik) links with their asqtad
coefficients folded in (:mod:`repro.gauge.asqtad`), and eta are the
Kogut-Susskind phases that carry the spin structure.  D_IS is
anti-Hermitian and connects only opposite parities, so ``M^+ M =
m^2 - D^2/4`` decouples even from odd sites — the property the multi-shift
CG solver relies on (Sec. 3.1).
"""

from __future__ import annotations

import numpy as np

from repro.dirac import base
from repro.dirac.base import (
    BoundarySpec,
    LatticeOperator,
    PERIODIC,
    link_apply_cols,
)
from repro.gauge.asqtad import AsqtadLinks, build_asqtad_links
from repro.kernels import resolve_kernel
from repro.lattice.fields import GaugeField
from repro.lattice.geometry import Geometry, axis_of_mu
from repro.util.counters import record, record_operator, timed


def staggered_phases(
    geometry: Geometry, origin: tuple[int, int, int, int] = (0, 0, 0, 0)
) -> np.ndarray:
    """Kogut-Susskind phases ``eta_mu(x)``, shape ``(4,) + geometry.shape``.

    eta_x = 1, eta_y = (-1)^x, eta_z = (-1)^(x+y), eta_t = (-1)^(x+y+z).

    ``origin`` is the *global* coordinate of this geometry's site (0,0,0,0);
    a padded or offset sub-domain (the multi-GPU ghost-zone layout) must
    pass its origin so the local phases agree with the global ones.
    """
    x = geometry.coordinate(0) + origin[0]
    y = geometry.coordinate(1) + origin[1]
    z = geometry.coordinate(2) + origin[2]
    eta = np.empty((4,) + geometry.shape, dtype=np.float64)
    eta[0] = 1.0
    eta[1] = (-1.0) ** x
    eta[2] = (-1.0) ** (x + y)
    eta[3] = (-1.0) ** (x + y + z)
    return eta


class _StaggeredBase(LatticeOperator):
    """Shared machinery for 1-hop (+optional 3-hop) staggered stencils."""

    nspin = 1

    def __init__(
        self,
        geometry: Geometry,
        fat: np.ndarray,
        long_links: np.ndarray | None,
        mass: float,
        boundary: BoundarySpec,
        origin: tuple[int, int, int, int] = (0, 0, 0, 0),
        kernel: str = "auto",
    ):
        super().__init__(geometry)
        self.fat = fat
        self.long = long_links
        self.mass = float(mass)
        self.boundary = boundary
        self.origin = tuple(origin)
        self._backend = resolve_kernel(kernel, operator="staggered")
        self.kernel = self._backend.name
        self.eta = staggered_phases(geometry, origin=self.origin)
        # Column-layout link caches (lazy): the daggered links are
        # precomputed once per operator instead of per dslash call.
        self._fat_cols: np.ndarray | None = None
        self._fat_dag_cols: np.ndarray | None = None
        self._long_cols: np.ndarray | None = None
        self._long_dag_cols: np.ndarray | None = None
        # Exterior-kernel links and phases of a padded operator, per mu.
        self._ghost_links: dict = {}

    def _caches(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
        if self._fat_cols is None:
            self._fat_cols = np.ascontiguousarray(np.swapaxes(self.fat, -1, -2))
            self._fat_dag_cols = np.conj(self.fat)  # (F^dagger)^T
            if self.long is not None:
                self._long_cols = np.ascontiguousarray(
                    np.swapaxes(self.long, -1, -2)
                )
                self._long_dag_cols = np.conj(self.long)
        return (
            self._fat_cols,
            self._fat_dag_cols,
            self._long_cols,
            self._long_dag_cols,
        )

    @property
    def ghost_depth(self) -> int:
        """Stencil reach: 3 for asqtad (the paper's locality problem), else 1."""
        return 3 if self.long is not None else 1

    def dslash(self, x: np.ndarray) -> np.ndarray:
        """The derivative term D_IS (records its own tally entry)."""
        batch = self.batch_size(x)
        record_operator(f"{self.name}_dslash")
        record(
            flops=self.dslash_flops_per_site * self.geometry.volume * batch,
            bytes_moved=self.bytes_per_application(x.dtype, batch=batch),
        )
        return self._dslash(x)

    def _dslash(self, x: np.ndarray) -> np.ndarray:
        with timed(f"{self.name}_dslash", kind="dslash"):
            return self._backend.staggered_dslash(self, x)

    def _dslash_numpy(self, x: np.ndarray) -> np.ndarray:
        """The vectorized NumPy stencil (the ``"numpy"`` backend body)."""
        geom = self.geometry
        lead = self.field_lead(x)
        batched = bool(lead)
        fat_cols, fat_dag_cols, long_cols, long_dag_cols = self._caches()
        out = np.zeros_like(x)
        for mu in range(4):
            bc = self.boundary[mu]
            eta = self.eta[mu][..., None]
            hop = link_apply_cols(
                fat_cols[mu],
                geom.shift(x, mu, +1, boundary=bc, lead=lead),
                batched=batched,
            )
            hop -= geom.shift(
                link_apply_cols(fat_dag_cols[mu], x, batched=batched),
                mu, -1, boundary=bc, lead=lead,
            )
            if self.long is not None:
                hop += link_apply_cols(
                    long_cols[mu],
                    geom.shift(x, mu, +3, boundary=bc, lead=lead),
                    batched=batched,
                )
                hop -= geom.shift(
                    link_apply_cols(long_dag_cols[mu], x, batched=batched),
                    mu, -3, boundary=bc, lead=lead,
                )
            out += eta * hop
        return out

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return self.mass * x - 0.5 * self._dslash(x)

    def _apply_dagger(self, x: np.ndarray) -> np.ndarray:
        # D_IS is anti-Hermitian, so M^+ = m + D/2.
        return self.mass * x + 0.5 * self._dslash(x)

    def apply_site_diagonal(self, x: np.ndarray) -> np.ndarray:
        """The mass term m x."""
        return self.mass * x

    def apply_hopping(self, x: np.ndarray) -> np.ndarray:
        """The hopping part, ``-1/2 D_IS x``."""
        return -0.5 * self._dslash(x)

    def ghost_hopping(
        self, mu: int, lo: np.ndarray, hi: np.ndarray,
        sites: tuple[slice, ...],
    ) -> tuple[np.ndarray, np.ndarray]:
        """The exterior kernel of Sec. 6.2: ``-1/2 D_IS`` restricted to
        the hops sourced from the ghost slabs of direction ``mu``.

        ``self`` is a rank's padded operator and ``sites`` its slicing of
        the local block (ghost depth :attr:`ghost_depth` on each side of
        ``mu``); ``lo``/``hi`` are the ghost slabs below/above the block.
        Returns the contributions to the block's first and last
        ``ghost_depth`` layers: backward hops from ``lo`` through the
        ghost-layer daggered links, forward hops from ``hi`` through the
        face-layer links (fat one hop deep, long three).  The arithmetic
        follows :meth:`_dslash_numpy` op for op, so on each face the sum
        is bitwise what the full padded stencil computes on a field that
        is zero outside those slabs.  Only an asqtad block thinner than
        twice the Naik depth, whose two faces share layers, sums a site's
        hops in another order (to rounding).
        """
        with timed(f"{self.name}_dslash", kind="dslash"):
            lead = self.field_lead(lo)
            batched = bool(lead)
            pre = (slice(None),) * (lead + axis_of_mu(mu))
            first = pre + (slice(0, 1),)
            last = pre + (slice(self.ghost_depth - 1, self.ghost_depth),)
            links = self._ghost_link_slabs(mu, sites)
            dtype = np.result_type(lo.dtype, self.fat.dtype)
            hop_lo = np.zeros(lo.shape, dtype)
            hop_hi = np.zeros(hi.shape, dtype)
            hop_hi[last] += link_apply_cols(
                links["fat"], hi[first], batched=batched
            )
            hop_lo[first] -= link_apply_cols(
                links["fat_dag"], lo[last], batched=batched
            )
            if self.long is not None:
                # Naik hops from all three ghost layers land on all three
                # face layers.
                hop_hi += link_apply_cols(links["long"], hi, batched=batched)
                hop_lo -= link_apply_cols(
                    links["long_dag"], lo, batched=batched
                )
            return (
                -0.5 * (links["eta_lo"] * hop_lo),
                -0.5 * (links["eta_hi"] * hop_hi),
            )

    def _ghost_link_slabs(self, mu: int, sites: tuple[slice, ...]) -> dict:
        """The link layers and phases :meth:`ghost_hopping` reads, sliced
        from the padded fields in the column layouts of :meth:`_caches`
        (which is not built)."""
        slabs = self._ghost_links.get(mu)
        if slabs is None:
            d = self.ghost_depth
            ax = axis_of_mu(mu)
            lo, hi = sites[ax].start, sites[ax].stop

            def layers(field, start, stop):
                sl = list(sites)
                sl[ax] = slice(start, stop)
                return field[mu][tuple(sl)]

            def cols(u):
                return np.ascontiguousarray(np.swapaxes(u, -1, -2))

            slabs = {
                "fat": cols(layers(self.fat, hi - 1, hi)),
                "fat_dag": np.conj(layers(self.fat, lo - 1, lo)),
                "eta_lo": layers(self.eta, lo, lo + d)[..., None],
                "eta_hi": layers(self.eta, hi - d, hi)[..., None],
            }
            if self.long is not None:
                slabs["long"] = cols(layers(self.long, hi - d, hi))
                slabs["long_dag"] = np.conj(layers(self.long, lo - d, lo))
            self._ghost_links[mu] = slabs
        return slabs

    @property
    def dslash_flops_per_site(self) -> int:
        return (
            base.ASQTAD_DSLASH_FLOPS
            if self.long is not None
            else base.STAGGERED_DSLASH_FLOPS
        )

    def restrict_to_block(self, partition, rank: int):
        """Dirichlet-cut block operator for the Schwarz preconditioner."""
        return self.restrict(
            partition.slices(rank), partition.grid.partitioned_dims
        )

    def restrict(self, sites: tuple[slice, ...], cut: tuple[int, ...]):
        """The operator on the sub-lattice ``sites`` (a slicing of the
        site axes) with the directions ``cut`` set to zero boundaries.

        The fat/long links are sliced from this operator's fields; the
        sub-lattice's global origin keeps the Kogut-Susskind phases
        consistent.
        """
        sl = (slice(None),) + sites
        fat = np.ascontiguousarray(self.fat[sl])
        long_links = (
            np.ascontiguousarray(self.long[sl]) if self.long is not None else None
        )
        origin = tuple(
            self.origin[mu] + (sites[axis_of_mu(mu)].start or 0)
            for mu in range(4)
        )
        out = _StaggeredBase.__new__(type(self))
        _StaggeredBase.__init__(
            out,
            Geometry(tuple(reversed(fat.shape[1:5]))),
            fat,
            long_links,
            self.mass,
            self.boundary.with_dirichlet(cut),
            origin=origin,
            kernel=self.kernel,
        )
        return out


class NaiveStaggeredOperator(_StaggeredBase):
    """Unimproved staggered operator (thin links, 1-hop stencil) — the
    baseline against which asqtad's 3-hop locality cost is measured."""

    name = "staggered"
    flops_per_site = base.STAGGERED_DSLASH_FLOPS + 12

    def __init__(
        self,
        gauge: GaugeField,
        mass: float,
        boundary: BoundarySpec = PERIODIC,
        origin: tuple[int, int, int, int] = (0, 0, 0, 0),
        kernel: str = "auto",
    ):
        self.gauge = gauge
        super().__init__(
            gauge.geometry, gauge.data, None, mass, boundary, origin=origin,
            kernel=kernel,
        )

    def with_boundary(self, boundary: BoundarySpec) -> "NaiveStaggeredOperator":
        return NaiveStaggeredOperator(
            self.gauge, self.mass, boundary, self.origin, kernel=self.kernel
        )


class AsqtadOperator(_StaggeredBase):
    """Improved staggered (asqtad) operator of Eq. (3)."""

    name = "asqtad"
    flops_per_site = base.ASQTAD_MATVEC_FLOPS

    def __init__(
        self,
        links: AsqtadLinks,
        mass: float,
        boundary: BoundarySpec = PERIODIC,
        origin: tuple[int, int, int, int] = (0, 0, 0, 0),
        kernel: str = "auto",
    ):
        self.links = links
        super().__init__(
            links.geometry, links.fat, links.long, mass, boundary, origin=origin,
            kernel=kernel,
        )

    @classmethod
    def from_gauge(
        cls,
        gauge: GaugeField,
        mass: float,
        u0: float = 1.0,
        boundary: BoundarySpec = PERIODIC,
        kernel: str = "auto",
    ) -> "AsqtadOperator":
        """Build fat/long links from a thin-link configuration, then the
        operator (the "precalculated before the application" step)."""
        return cls(build_asqtad_links(gauge, u0=u0), mass, boundary, kernel=kernel)

    def with_boundary(self, boundary: BoundarySpec) -> "AsqtadOperator":
        return AsqtadOperator(
            self.links, self.mass, boundary, self.origin, kernel=self.kernel
        )


class StaggeredNormalOperator(LatticeOperator):
    """``M^+ M + sigma = (m^2 + sigma) - D^2/4`` for staggered M.

    This is the Hermitian positive-definite operator the (multi-shift) CG
    solver inverts, Eq. (4).  It preserves site parity: a right-hand side
    supported on even sites yields an even-supported solution, which is how
    "the even and odd lattices ... can be solved independently".
    """

    nspin = 1

    def __init__(self, base_op: _StaggeredBase, sigma: float = 0.0):
        super().__init__(base_op.geometry)
        self.base = base_op
        self.sigma = float(sigma)
        self.name = f"{base_op.name}_normal"
        if self.sigma:
            self.name += f"+{self.sigma:g}"
        self.flops_per_site = 2 * base_op.dslash_flops_per_site + 24

    def _apply(self, x: np.ndarray) -> np.ndarray:
        d2 = self.base._dslash(self.base._dslash(x))
        return (self.base.mass**2 + self.sigma) * x - 0.25 * d2

    _apply_dagger = _apply  # Hermitian

    def shifted(self, sigma: float) -> "StaggeredNormalOperator":
        return StaggeredNormalOperator(self.base, self.sigma + sigma)

    def with_boundary(self, boundary: BoundarySpec) -> "StaggeredNormalOperator":
        return StaggeredNormalOperator(
            self.base.with_boundary(boundary), self.sigma
        )

    def restrict_to_block(self, partition, rank: int) -> "StaggeredNormalOperator":
        return StaggeredNormalOperator(
            self.base.restrict_to_block(partition, rank), self.sigma
        )
