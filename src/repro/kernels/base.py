"""The kernel-backend protocol: what a dslash implementation declares.

The paper's software stack (QUDA under Chroma/MILC) separates the
*solver* layer — Krylov iterations, domain decomposition, precision
policy — from the *kernel* layer that actually evaluates the stencil on
a device.  This module is that seam for the reproduction: a
:class:`KernelBackend` wraps one implementation of the Wilson and/or
staggered hopping terms and declares, via :class:`KernelCapabilities`,
exactly what it can do (which operator families, whether it vectorizes a
leading multi-RHS batch axis, whether it is valid under the
interior/exterior split schedule, which complex dtypes it accepts).

Backends register with :mod:`repro.kernels.registry`; operators resolve
a name (``"auto"``, ``"numpy"``, ``"numba"``, ...) to a backend once at
construction and route every ``_dslash`` through it.  A backend whose
runtime dependency is missing still registers — with ``available`` False
and a human-readable ``unavailable_reason`` — so the capability matrix
(``python -m repro kernels``) and validation errors can say *why* a tier
cannot be selected instead of pretending it does not exist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Operator families a backend may implement.  ``"wilson"`` covers the
#: Wilson and Wilson-clover hopping term (the clover/diagonal parts are
#: site-local and stay with the operator); ``"staggered"`` covers the
#: naive 1-hop and asqtad 1+3-hop derivative.
OPERATOR_FAMILIES = ("wilson", "staggered")


class KernelUnavailableError(ValueError):
    """A kernel backend was requested but cannot serve the request.

    Carries the list of backend names that *could* serve it, so callers
    (``validate_request``, the serve layer) can surface actionable
    choices in their field-named error messages.
    """

    def __init__(self, message: str, choices: tuple[str, ...] = ()):
        super().__init__(message)
        self.choices = tuple(choices)


@dataclass(frozen=True)
class KernelCapabilities:
    """What one backend's kernels can execute.

    Attributes
    ----------
    operators:
        Operator families served, from :data:`OPERATOR_FAMILIES`.
    batched:
        Accepts fields with a leading multi-RHS batch axis.
    split:
        Valid under the interior/exterior split schedule (the kernel
        must honor ``"zero"`` boundary cuts exactly: the interior kernel
        runs it on the Dirichlet-cut block, and the NumPy exterior
        kernels add the ghost hops onto that result).
    dtypes:
        Complex dtype names the kernels accept (e.g. ``"complex128"``).
    """

    operators: tuple[str, ...]
    batched: bool = True
    split: bool = True
    dtypes: tuple[str, ...] = ("complex128", "complex64")

    def supports_dtype(self, dtype) -> bool:
        return np.dtype(dtype).name in self.dtypes


class KernelBackend:
    """One dslash implementation tier.

    Subclasses set ``name``, ``priority`` and ``capabilities`` and
    implement the hop-term hooks for the families they declare.  The
    hooks receive the *operator* (which owns the gauge/link fields,
    boundary conditions and any per-operator caches) and the input
    field, and return the bare derivative term — ``D x`` for Wilson,
    ``D_IS x`` for staggered — exactly as the in-tree NumPy stencils do;
    scaling by ``-1/2`` and adding diagonal terms stays in the operator.
    """

    #: Registry key and the value of ``SolveRequest.kernel``.
    name: str = ""
    #: ``"auto"`` resolution picks the highest-priority available
    #: backend that supports the request; ties break by name.
    priority: int = 0
    capabilities: KernelCapabilities = KernelCapabilities(operators=())
    #: True when the backend's batched Wilson path fuses the diagonal,
    #: clover and hopping terms in one layout round-trip (the stacked-
    #: GEMM fast path); the operator then routes whole applications —
    #: not just the hop term — through the backend-side fused kernel.
    fuses_batched_wilson_apply: bool = False

    @property
    def available(self) -> bool:
        """Whether the backend can actually run on this host."""
        return True

    @property
    def unavailable_reason(self) -> str | None:
        """Why ``available`` is False (``None`` when available)."""
        return None

    # ------------------------------------------------------------------
    # hop-term hooks
    # ------------------------------------------------------------------
    def wilson_dslash(self, op, x: np.ndarray) -> np.ndarray:
        """Evaluate the Wilson hopping term ``D x`` (Eq. 2's stencil)."""
        raise NotImplementedError(
            f"backend {self.name!r} does not implement the wilson family"
        )

    def staggered_dslash(self, op, x: np.ndarray) -> np.ndarray:
        """Evaluate the staggered derivative ``D_IS x`` (Eq. 3)."""
        raise NotImplementedError(
            f"backend {self.name!r} does not implement the staggered family"
        )

    # ------------------------------------------------------------------
    def supports(self, operator: str | None = None) -> bool:
        """Whether this backend serves the given operator family."""
        return operator is None or operator in self.capabilities.operators

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "available" if self.available else "unavailable"
        return f"<KernelBackend {self.name!r} ({state})>"


__all__ = [
    "KernelBackend",
    "KernelCapabilities",
    "KernelUnavailableError",
    "OPERATOR_FAMILIES",
]
