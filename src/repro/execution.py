"""Typed execution policy: :class:`KernelSpec` and :class:`ExecutionOptions`.

Two small frozen dataclasses that every entry point (``api.solve`` /
``api.solve_batch`` / ``api.serve``, ``make_batch_solver``,
:class:`~repro.workloads.suite.EvaluationSuite`, the CLI) accepts as a
single ``options=`` argument:

* :class:`KernelSpec` — *how one FK/Jacobian evaluation runs*: kernel mode
  (``"scalar"`` / ``"vectorized"``), floating-point dtype (``"float64"`` /
  ``"float32"``), and the FK chunk size.  ``None`` fields inherit whatever
  the chain was built with.
* :class:`ExecutionOptions` — *how a solve call executes*: the kernel spec,
  process sharding (``workers`` / ``timeout``) and failure policy
  (``on_error`` / ``resilience``).

``options.kernel`` is the one place a caller picks a kernel: the entry
point that receives the options applies the spec to the chain once
(:meth:`KernelSpec.apply`), and solvers and engines run on the chain they
are handed.  Code that builds solvers directly applies a spec itself:
``make_solver(name, KernelSpec("vectorized").apply(chain))``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from repro.kinematics.kernels import (
    DEFAULT_KERNEL,
    KERNEL_MODES,
    resolve_kernel_mode,
)

__all__ = [
    "KernelSpec",
    "ExecutionOptions",
    "ON_ERROR_MODES",
    "KERNEL_DTYPES",
    "resolve_kernel_dtype",
]

#: Batch failure policies.
ON_ERROR_MODES = ("raise", "skip", "fallback")

#: Floating-point dtypes the kernel layer supports.  ``float64`` is the
#: oracle precision; ``float32`` mirrors the IKAcc datapath (the accelerator
#: computes in single precision) and trades ~1e-7 m of FK accuracy for
#: bandwidth — see ``docs/performance.md`` for the measured bound.
KERNEL_DTYPES = ("float64", "float32")


def resolve_kernel_dtype(dtype: Any) -> str | None:
    """Canonicalise a kernel dtype (``None`` means "inherit the chain's").

    Accepts the canonical strings, numpy dtypes or scalar types
    (``np.float32``), and returns ``"float64"`` / ``"float32"``.
    """
    if dtype is None:
        return None
    name = np.dtype(dtype).name
    if name not in KERNEL_DTYPES:
        known = ", ".join(KERNEL_DTYPES)
        raise ValueError(f"unknown kernel dtype {dtype!r}; known dtypes: {known}")
    return name


@dataclass(frozen=True)
class KernelSpec:
    """How one FK/Jacobian evaluation runs: kernel mode × dtype × chunk.

    Every field defaults to ``None`` = "inherit from the chain", so a spec
    only pins the axes the caller cares about.  Frozen and hashable.

    Parameters
    ----------
    name:
        Kernel mode: ``"scalar"`` (the bit-exact oracle) or ``"vectorized"``
        (the stacked-matmul fast path).
    dtype:
        ``"float64"`` or ``"float32"``.  Accepts numpy dtypes; stored
        canonically as the string.
    chunk:
        FK rows per chunked sweep call in Quick-IK's lock-step engine
        (:class:`~repro.solvers.batched.BatchedQuickIK`, the one engine
        that chunks); ``None`` picks the per-kernel default (128 scalar /
        8192 vectorized).
    """

    name: str | None = None
    dtype: str | None = None
    chunk: int | None = None

    def __post_init__(self) -> None:
        if self.name is not None:
            object.__setattr__(self, "name", resolve_kernel_mode(self.name))
        object.__setattr__(self, "dtype", resolve_kernel_dtype(self.dtype))
        if self.chunk is not None:
            if int(self.chunk) < 1:
                raise ValueError("chunk must be >= 1")
            object.__setattr__(self, "chunk", int(self.chunk))

    @classmethod
    def coerce(cls, value: "KernelSpec | str | None") -> "KernelSpec | None":
        """Normalise ``ExecutionOptions(kernel=...)`` inputs: a spec, a mode
        name, or ``"mode:dtype"`` shorthand (e.g. ``"vectorized:float32"``)."""
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, str):
            name, _, dtype = value.partition(":")
            return cls(name=name or None, dtype=dtype or None)
        raise TypeError(
            f"kernel must be a KernelSpec, a mode name ({', '.join(KERNEL_MODES)})"
            f" or 'mode:dtype', got {type(value).__name__}"
        )

    def apply(self, chain):
        """Return ``chain`` computing under this spec (``self`` fields that
        are ``None`` inherit the chain's current mode/dtype)."""
        if self.name is not None and chain.kernel != self.name:
            chain = chain.with_kernel(self.name)
        if self.dtype is not None and chain.dtype != np.dtype(self.dtype):
            chain = chain.astype(self.dtype)
        return chain

    @property
    def label(self) -> str:
        """Compact ``mode/dtype`` label for benchmarks and traces."""
        return (
            f"{self.name or DEFAULT_KERNEL}/"
            f"{self.dtype or 'float64'}"
        )


@dataclass(frozen=True)
class ExecutionOptions:
    """How a solve call executes: kernel, sharding, failure policy.

    All defaults run one in-process solve on the chain's own kernel and
    raise on failure.

    Parameters
    ----------
    kernel:
        A :class:`KernelSpec`, a kernel-mode string, or ``"mode:dtype"``.
    workers:
        Shard batches across this many subprocesses
        (:class:`~repro.parallel.ShardedBatchSolver`); ``None`` runs inline.
    timeout:
        Wall-clock bound (seconds) on one pooled batch.
    on_error:
        Failure policy: ``"raise"`` / ``"skip"`` / ``"fallback"``.
    resilience:
        :class:`~repro.resilience.ResilienceConfig` (or ``True`` for the
        stock policy) enabling guards/watchdogs/fallback chains.
    """

    kernel: "KernelSpec | None" = None
    workers: int | None = None
    timeout: float | None = None
    on_error: str = "raise"
    resilience: Any = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", KernelSpec.coerce(self.kernel))
        if self.workers is not None and int(self.workers) < 1:
            raise ValueError("workers must be >= 1")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.on_error not in ON_ERROR_MODES:
            known = ", ".join(ON_ERROR_MODES)
            raise ValueError(
                f"unknown on_error mode {self.on_error!r}; known: {known}"
            )

    @classmethod
    def coerce(cls, options: "ExecutionOptions | None") -> "ExecutionOptions":
        """Normalise an ``options=`` argument: ``None`` means the defaults."""
        if options is None:
            return cls()
        if not isinstance(options, cls):
            raise TypeError(
                f"options must be ExecutionOptions, got {type(options).__name__}"
            )
        return options

    @property
    def needs_sharding(self) -> bool:
        """Whether these options route a batch through the sharded solver
        (:class:`~repro.parallel.ShardedBatchSolver`)."""
        return (
            self.workers is not None
            or self.on_error != "raise"
            or bool(self.resilience)
        )

    def resolved_resilience(self):
        """``resilience`` with the ``True`` shorthand expanded."""
        if self.resilience is True:
            from repro.resilience import ResilienceConfig

            return ResilienceConfig()
        if self.resilience is False:
            return None
        return self.resilience

    def merged(self, **overrides: Any) -> "ExecutionOptions":
        """Copy with ``overrides`` applied (``dataclasses.replace`` sugar)."""
        return replace(self, **overrides)
