"""Surface-only exterior kernels and the block-sized interior kernel.

The split rank apply (Sec. 6.2) runs the interior kernel on the local
block only and each exterior kernel on the ghost slabs only.  It must be
bitwise equal to the full-volume formula it replaced — the padded
stencil on a zero-ghost copy plus, per partitioned dimension, the padded
hopping term on a copy holding only that dimension's ghosts — which this
file keeps as its reference.
"""

import numpy as np
import pytest

from repro.comm import ProcessGrid
from repro.dirac import AsqtadOperator, PERIODIC, PHYSICAL
from repro.lattice import GaugeField, Geometry
from repro.multigpu import DistributedOperator
from repro.multigpu.partition import BlockPartition

BCS = [PERIODIC, PHYSICAL]
#: Local extents 2 and 4, in one and in two partitioned dimensions.
GRIDS = [
    ProcessGrid((1, 1, 1, 2)),  # T: 4
    ProcessGrid((1, 1, 1, 4)),  # T: 2
    ProcessGrid((1, 1, 2, 2)),  # Z: 2, T: 4
    ProcessGrid((2, 1, 1, 4)),  # X: 2, T: 2
]
DTYPES = [np.complex128, np.complex64]


@pytest.fixture(scope="module")
def gauge():
    return GaugeField.weak(Geometry((4, 4, 4, 8)), epsilon=0.3, rng=501)


# ----------------------------------------------------------------------
# the full-volume formula, kept only as the reference
# ----------------------------------------------------------------------
def zero_ghosts(layout, pad, lead):
    out = pad.copy()
    for mu in layout.partitioned_dims:
        for side in (+1, -1):
            out[layout.ghost_slices(mu, side, lead)] = 0
    return out


def only_ghost(layout, pad, mu, lead):
    out = np.zeros_like(pad)
    for side in (+1, -1):
        sl = layout.ghost_slices(mu, side, lead)
        out[sl] = pad[sl]
    return out


def full_volume_split(dist, xs, lead):
    layout = dist.exchanger.layout
    padded = dist.exchanger.exchange_spinor(xs, lead=lead)
    outs = []
    for op, pad in zip(dist.local_ops, padded):
        interior_in = zero_ghosts(layout, pad, lead)
        out = layout.extract_interior(op._apply(interior_in), lead)
        for mu in layout.partitioned_dims:
            ghost_in = only_ghost(layout, pad, mu, lead)
            hop = op.apply_hopping(ghost_in)
            out = out + layout.extract_interior(hop, lead)
        outs.append(out)
    return outs


def random_field(geom, nspin, batch, dtype, seed):
    rng = np.random.default_rng(seed)
    site = (4, 3) if nspin == 4 else (3,)
    shape = ((batch,) if batch else ()) + geom.shape + site
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return x.astype(dtype)


def assert_split_matches_reference(dist, x, lead):
    xs = dist.scatter(x)
    expected = full_volume_split(dist, xs, lead)
    got = dist.apply_split(xs)
    for rank, (e, g) in enumerate(zip(expected, got)):
        assert g.dtype == e.dtype, rank
        assert np.array_equal(g, e), rank


# ----------------------------------------------------------------------
# bitwise equality with the full-volume formula
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
@pytest.mark.parametrize("batch", [None, 1, 3], ids=["single", "B1", "B3"])
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.label)
@pytest.mark.parametrize("bc", BCS, ids=["periodic", "physical"])
def test_wilson_clover_bitwise(gauge, bc, grid, batch, dtype):
    dist = DistributedOperator.wilson_clover(
        gauge, 0.1, 1.0, grid, boundary=bc, kernel="numpy"
    )
    x = random_field(gauge.geometry, 4, batch, dtype, seed=7)
    assert_split_matches_reference(dist, x, lead=1 if batch else 0)


@pytest.mark.parametrize("dtype", DTYPES, ids=["c128", "c64"])
@pytest.mark.parametrize("batch", [None, 3], ids=["single", "B3"])
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: g.label)
@pytest.mark.parametrize("bc", BCS, ids=["periodic", "physical"])
def test_naive_staggered_bitwise(gauge, bc, grid, batch, dtype):
    dist = DistributedOperator.naive_staggered(
        gauge, 0.1, grid, boundary=bc, kernel="numpy"
    )
    x = random_field(gauge.geometry, 1, batch, dtype, seed=8)
    assert_split_matches_reference(dist, x, lead=1 if batch else 0)


def test_asqtad_bitwise_when_faces_are_disjoint():
    gauge = GaugeField.weak(Geometry((4, 4, 4, 12)), epsilon=0.3, rng=502)
    links = AsqtadOperator.from_gauge(gauge, mass=0.05).links
    dist = DistributedOperator.asqtad(
        links, 0.05, ProcessGrid((1, 1, 1, 2)), boundary=PHYSICAL
    )
    x = random_field(gauge.geometry, 1, None, np.complex128, seed=9)
    assert_split_matches_reference(dist, x, lead=0)


def test_asqtad_thin_block_agrees_to_rounding(gauge):
    """Local extent 4 < twice the Naik depth: the two faces share layers
    and their hops are summed per face, so only rounding may differ."""
    links = AsqtadOperator.from_gauge(gauge, mass=0.05).links
    dist = DistributedOperator.asqtad(links, 0.05, ProcessGrid((1, 1, 1, 2)))
    x = random_field(gauge.geometry, 1, None, np.complex128, seed=10)
    xs = dist.scatter(x)
    expected = full_volume_split(dist, xs, 0)
    for e, g in zip(expected, dist.apply_split(xs)):
        assert np.abs(g - e).max() < 1e-14 * np.abs(e).max()


def test_local_extent_one_cannot_be_built():
    """Blocks are even-extent (even-odd ordering), so a face is never
    both the first and the last layer of a 1-hop stencil's block."""
    with pytest.raises(ValueError, match="even"):
        BlockPartition(Geometry((4, 4, 4, 8)), ProcessGrid((1, 1, 1, 8)))


# ----------------------------------------------------------------------
# the work each kernel does
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch", [None, 3], ids=["single", "B3"])
@pytest.mark.parametrize(
    "operator, depth",
    [("wilson_clover", 1), ("naive_staggered", 1), ("asqtad", 3)],
)
def test_kernels_only_see_block_and_ghost_slabs(gauge, operator, depth, batch):
    """The exterior kernel receives only arrays whose extent along mu is
    the ghost depth; the padded operator's full stencil never runs."""
    grid = ProcessGrid((1, 1, 2, 2) if depth == 1 else (1, 1, 1, 2))
    if operator == "wilson_clover":
        dist = DistributedOperator.wilson_clover(gauge, 0.1, 1.0, grid)
        nspin = 4
    elif operator == "naive_staggered":
        dist = DistributedOperator.naive_staggered(gauge, 0.1, grid)
        nspin = 1
    else:
        links = AsqtadOperator.from_gauge(gauge, mass=0.05).links
        dist = DistributedOperator.asqtad(links, 0.05, grid)
        nspin = 1
    lead = 1 if batch else 0
    seen = []

    def forbid(*args, **kwargs):
        raise AssertionError("full-volume padded stencil ran")

    for op in dist.local_ops:
        ghost_hopping = op.ghost_hopping

        def record(mu, lo, hi, sites, _inner=ghost_hopping):
            axis = lead + 3 - mu
            seen.append((mu, lo.shape[axis], hi.shape[axis]))
            return _inner(mu, lo, hi, sites)

        op.ghost_hopping = record
        op._apply = op.apply_hopping = op._dslash = forbid
    block_volume = dist.partition.local_geometry.volume
    for block in dist.block_ops:
        assert block.geometry.volume == block_volume

    x = random_field(gauge.geometry, nspin, batch, np.complex128, seed=11)
    dist.apply_split(dist.scatter(x))
    assert sorted(seen) == sorted(
        (mu, depth, depth)
        for _ in range(grid.size)
        for mu in grid.partitioned_dims
    )
