"""validate_request: field-named errors with valid choices."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import SolveRequest, validate_request
from repro.lattice import GaugeField, Geometry, SpinorField


@pytest.fixture(scope="module")
def base():
    geo = Geometry((4, 4, 4, 4))
    gauge = GaugeField.unit(geo)
    rhs = SpinorField.random(geo, rng=0).data
    return gauge, rhs


def request(base, **overrides):
    gauge, rhs = base
    kw = dict(operator="wilson_clover", gauge=gauge, rhs=rhs, mass=0.1)
    kw.update(overrides)
    return SolveRequest(**kw)


class TestFieldNamedErrors:
    def test_unknown_operator_names_field_and_choices(self, base):
        with pytest.raises(ValueError, match="unknown operator") as exc:
            validate_request(request(base, operator="twisted_mass"))
        msg = str(exc.value)
        assert msg.startswith("SolveRequest.operator:")
        assert "valid choices" in msg and "asqtad_multishift" in msg

    def test_unknown_method_lists_operator_methods(self, base):
        with pytest.raises(ValueError, match="unknown method") as exc:
            validate_request(request(base, method="cg"))
        msg = str(exc.value)
        assert msg.startswith("SolveRequest.method:")
        assert "bicgstab" in msg and "gcr-dd" in msg

    def test_unknown_backend_lists_backends(self, base):
        with pytest.raises(ValueError, match="unknown backend") as exc:
            validate_request(
                request(base, method="gcr-dd", backend="mpi")
            )
        assert "sequential, threads, processes" in str(exc.value)

    def test_backend_without_gcrdd_names_field(self, base):
        with pytest.raises(ValueError, match="gcr-dd") as exc:
            validate_request(request(base, backend="threads"))
        assert str(exc.value).startswith("SolveRequest.backend:")

    def test_overlap_without_backend_mentions_spmd(self, base):
        from repro.comm.grid import ProcessGrid

        with pytest.raises(ValueError, match="SPMD backend") as exc:
            validate_request(
                request(base, method="gcr-dd",
                        grid=ProcessGrid((2, 1, 1, 1)), overlap=True)
            )
        assert str(exc.value).startswith("SolveRequest.overlap:")

    def test_unknown_kernel_names_field_and_choices(self, base):
        with pytest.raises(ValueError, match="unknown kernel") as exc:
            validate_request(request(base, kernel="cuda"))
        msg = str(exc.value)
        assert msg.startswith("SolveRequest.kernel:")
        assert "valid choices" in msg and "auto" in msg and "numpy" in msg

    def test_unavailable_kernel_reports_reason_and_choices(self, base):
        from repro.kernels import get_backend

        if get_backend("numba").available:
            pytest.skip("numba installed: the tier is selectable here")
        with pytest.raises(ValueError, match="not available") as exc:
            validate_request(request(base, kernel="numba"))
        msg = str(exc.value)
        assert msg.startswith("SolveRequest.kernel:")
        assert "valid choices" in msg and "numpy" in msg

    def test_wilson_only_kernel_rejected_for_staggered(self, base):
        gauge, _ = base
        rhs1 = SpinorField.random(gauge.geometry, nspin=1, rng=1).data
        with pytest.raises(ValueError, match="does not support") as exc:
            validate_request(request(
                base, operator="asqtad", rhs=rhs1, kernel="numpy_ref"
            ))
        assert str(exc.value).startswith("SolveRequest.kernel:")

    def test_unknown_schedule_names_field_and_choices(self, base):
        with pytest.raises(ValueError, match="unknown schedule") as exc:
            validate_request(request(base, schedule="pipelined"))
        msg = str(exc.value)
        assert msg.startswith("SolveRequest.schedule:")
        assert "fused" in msg and "split" in msg

    def test_explicit_schedule_needs_spmd_gcrdd(self, base):
        with pytest.raises(ValueError, match="gcr-dd") as exc:
            validate_request(request(base, schedule="split"))
        assert str(exc.value).startswith("SolveRequest.schedule:")

    def test_overlap_with_fused_schedule_rejected(self, base):
        from repro.comm.grid import ProcessGrid

        with pytest.raises(ValueError, match="split") as exc:
            validate_request(request(
                base, method="gcr-dd", grid=ProcessGrid((2, 1, 1, 1)),
                backend="sequential", overlap=True, schedule="fused",
            ))
        assert str(exc.value).startswith("SolveRequest.schedule:")

    def test_gcrdd_without_grid(self, base):
        with pytest.raises(ValueError, match="process grid") as exc:
            validate_request(request(base, method="gcr-dd"))
        assert str(exc.value).startswith("SolveRequest.grid:")

    def test_grid_as_plain_tuple_names_process_grid(self, base):
        with pytest.raises(ValueError, match="ProcessGrid") as exc:
            validate_request(
                request(base, method="gcr-dd", grid=(1, 1, 2, 2))
            )
        msg = str(exc.value)
        assert msg.startswith("SolveRequest.grid:")
        assert "tuple" in msg

    def test_multishift_without_shifts(self, base):
        with pytest.raises(ValueError, match="needs shifts") as exc:
            validate_request(request(base, operator="asqtad_multishift"))
        assert str(exc.value).startswith("SolveRequest.shifts:")

    def test_nonpositive_tol_and_maxiter(self, base):
        with pytest.raises(ValueError, match="SolveRequest.tol"):
            validate_request(request(base, tol=0.0))
        with pytest.raises(ValueError, match="SolveRequest.maxiter"):
            validate_request(request(base, maxiter=-1))

    def test_even_odd_only_for_wilson(self, base):
        with pytest.raises(ValueError, match="wilson_clover") as exc:
            validate_request(
                request(base, operator="asqtad", method="cg",
                        even_odd=True)
            )
        assert str(exc.value).startswith("SolveRequest.even_odd:")


class TestSolveIntegration:
    def test_solve_validates_before_building_operators(self, base):
        from repro.core.api import solve

        # A bogus gauge object would explode in operator construction;
        # validation must fire first on the schema-level mistake.
        _, rhs = base
        req = SolveRequest(
            operator="nope", gauge=object(), rhs=rhs, mass=0.1
        )
        with pytest.raises(ValueError, match="SolveRequest.operator"):
            solve(req)

    def test_valid_request_passes_and_solves(self, base):
        from repro.core.api import solve

        res = solve(request(base, tol=1e-6))
        assert res.converged
        assert np.isfinite(res.residual)
