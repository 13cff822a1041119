"""The padded ghost-zone layout of one rank's sub-lattice (Fig. 2).

Pure geometry, shared by every component that touches padded arrays: the
global-view :class:`~repro.multigpu.halo.HaloExchanger` driver, the
per-rank :class:`~repro.multigpu.rank_halo.RankHaloEngine` of the SPMD
execution model, and the distributed operators.  A :class:`HaloLayout`
binds a :class:`~repro.multigpu.partition.BlockPartition` to a stencil
``depth`` and answers every slicing question about the padded local
array: where the interior block sits, where each ghost slab sits, and
which face of the *unpadded* local field feeds each neighbor.

Ghost zones exist only along partitioned dimensions ("so as to ensure
that GPU memory as well as PCI-E and interconnect bandwidth are not
wasted"); corner regions are never addressed by any slice here —
axis-aligned stencils never read them.
"""

from __future__ import annotations

import numpy as np

from repro.dirac.base import BoundarySpec
from repro.lattice.geometry import Geometry, axis_of_mu
from repro.multigpu.partition import BlockPartition


def halo_logical_nbytes(buf: np.ndarray, precision, site_axes: int) -> int:
    """Logical wire bytes of one ghost-face buffer in ``precision``.

    Double/single transfer the raw complex payload.  QUDA's half format
    sends int16 mantissas (2 bytes per real) *plus one float32 norm per
    site* — the per-site scale of the fixed-point format — so the face
    bytes are ``reals * 2 + sites * 4``, not just ``reals * 2``.
    ``site_axes`` counts the trailing per-site axes of the buffer (2 for
    Wilson ``(spin, color)``, 1 for staggered ``(color,)``).
    """
    if precision is None:
        return buf.nbytes
    nbytes = buf.size * 2 * precision.bytes_per_real
    if precision.name == "half":
        sites = int(np.prod(buf.shape[: buf.ndim - site_axes], dtype=np.int64))
        nbytes += sites * 4
    return int(nbytes)


def local_boundary(
    global_bc: BoundarySpec, partitioned: tuple[int, ...]
) -> BoundarySpec:
    """Boundary spec for the padded local operator: partitioned directions
    become periodic within the padded array (their wrap only pollutes ghost
    outputs, which are discarded); the rest keep the global condition."""
    conds = list(global_bc.conditions)
    for mu in partitioned:
        conds[mu] = "periodic"
    return BoundarySpec(tuple(conds))


class HaloLayout:
    """Slicing arithmetic of the depth-padded local array."""

    def __init__(self, partition: BlockPartition, depth: int = 1):
        if depth < 1:
            raise ValueError("ghost depth must be >= 1")
        self.partition = partition
        self.depth = depth
        for mu in self.partitioned_dims:
            if partition.local_dims[mu] < depth:
                raise ValueError(
                    f"local extent {partition.local_dims[mu]} in dir {mu} is "
                    f"thinner than the ghost depth {depth}"
                )
        # Memoized slice tuples (pure functions of the static layout).
        self._slice_cache: dict[tuple, tuple[slice, ...]] = {}

    @property
    def partitioned_dims(self) -> tuple[int, ...]:
        return self.partition.grid.partitioned_dims

    @property
    def padded_dims(self) -> tuple[int, int, int, int]:
        """Local extents grown by 2*depth in each partitioned dimension."""
        dims = list(self.partition.local_dims)
        for mu in self.partitioned_dims:
            dims[mu] += 2 * self.depth
        return tuple(dims)

    @property
    def padded_geometry(self) -> Geometry:
        return Geometry(self.padded_dims)

    def padded_origin(self, rank: int) -> tuple[int, int, int, int]:
        """Global coordinate of the padded array's (0,0,0,0) site."""
        origin = list(self.partition.origin(rank))
        for mu in self.partitioned_dims:
            origin[mu] -= self.depth
        return tuple(origin)

    def padded_shape(self, field: np.ndarray, lead: int = 0) -> tuple[int, ...]:
        """Shape of the padded staging array for one local field."""
        return (
            field.shape[:lead]
            + tuple(reversed(self.padded_dims))
            + field.shape[lead + 4 :]
        )

    # -- slices ----------------------------------------------------------
    def interior_slices(self, lead: int = 0) -> tuple[slice, ...]:
        """Slicing of the padded array that selects the true local block."""
        key = ("interior", lead)
        cached = self._slice_cache.get(key)
        if cached is not None:
            return cached
        site = [slice(None)] * 4
        for mu in self.partitioned_dims:
            axis = axis_of_mu(mu)
            site[axis] = slice(
                self.depth, self.depth + self.partition.local_dims[mu]
            )
        result = (slice(None),) * lead + tuple(site)
        self._slice_cache[key] = result
        return result

    def ghost_slices(self, mu: int, side: int, lead: int = 0) -> tuple[slice, ...]:
        """Ghost slab of the padded array beyond the ``side`` face in mu."""
        key = ("ghost", mu, side, lead)
        cached = self._slice_cache.get(key)
        if cached is not None:
            return cached
        axis = axis_of_mu(mu)
        n_local = self.partition.local_dims[mu]
        site = list(self.interior_slices())
        if side == +1:
            site[axis] = slice(
                self.depth + n_local, self.depth + n_local + self.depth
            )
        else:
            site[axis] = slice(0, self.depth)
        result = (slice(None),) * lead + tuple(site)
        self._slice_cache[key] = result
        return result

    def face_slices(self, mu: int, sign: int, lead: int = 0) -> tuple[slice, ...]:
        """Face of the *unpadded* local field sent to the ``sign`` neighbor."""
        key = ("face", mu, sign, lead)
        cached = self._slice_cache.get(key)
        if cached is not None:
            return cached
        result = (slice(None),) * lead + self.partition.local_geometry.face_slice(
            mu, sign, self.depth
        )
        self._slice_cache[key] = result
        return result

    # -- padded-array helpers --------------------------------------------
    def extract_interior(self, padded: np.ndarray, lead: int = 0) -> np.ndarray:
        return np.ascontiguousarray(padded[self.interior_slices(lead)])


__all__ = ["HaloLayout", "halo_logical_nbytes", "local_boundary"]
