"""API tier for the unified execution policy objects.

Pins the contracts the redesign promised:

* :class:`KernelSpec` coercion (``"mode"``, ``"mode:dtype"``, numpy dtypes)
  and chain application;
* :class:`ExecutionOptions` validation and the ``from_legacy`` bridge —
  legacy keywords still work, warn exactly once per (site, keyword), and
  conflict loudly with an explicit ``options=``;
* the options object actually reaches the execution layers (registry,
  serving config, api entry points) rather than being decorative.
"""

import warnings

import numpy as np
import pytest

from repro import api
from repro.core.result import SolverConfig
from repro.execution import (
    KERNEL_DTYPES,
    ON_ERROR_MODES,
    ExecutionOptions,
    KernelSpec,
    reset_legacy_warnings,
    resolve_kernel_dtype,
)
from repro.kinematics.robots import paper_chain
from repro.serving.server import ServerConfig
from repro.solvers.registry import make_batch_solver

SEED = 20170619


@pytest.fixture(autouse=True)
def _fresh_warning_ledger():
    reset_legacy_warnings()
    yield
    reset_legacy_warnings()


# ----------------------------------------------------------------------
# KernelSpec
# ----------------------------------------------------------------------


class TestKernelSpec:
    def test_coerce_accepts_mode_name(self):
        spec = KernelSpec.coerce("vectorized")
        assert spec == KernelSpec(name="vectorized")
        assert spec.dtype is None and spec.chunk is None

    def test_coerce_accepts_mode_dtype_shorthand(self):
        spec = KernelSpec.coerce("vectorized:float32")
        assert spec.name == "vectorized"
        assert spec.dtype == "float32"

    def test_coerce_passes_through_spec_and_none(self):
        spec = KernelSpec(name="scalar")
        assert KernelSpec.coerce(spec) is spec
        assert KernelSpec.coerce(None) is None

    def test_coerce_rejects_other_types(self):
        with pytest.raises(TypeError, match="KernelSpec"):
            KernelSpec.coerce(42)

    def test_unknown_mode_and_dtype_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(name="cuda")
        with pytest.raises(ValueError, match="float16"):
            KernelSpec(dtype="float16")
        with pytest.raises(ValueError, match="chunk"):
            KernelSpec(chunk=0)

    def test_numpy_dtypes_canonicalised(self):
        assert KernelSpec(dtype=np.float32).dtype == "float32"
        assert resolve_kernel_dtype(np.dtype("float64")) == "float64"
        assert resolve_kernel_dtype(None) is None

    def test_apply_rematerialises_chain(self):
        chain = paper_chain(12)
        applied = KernelSpec(name="vectorized", dtype="float32").apply(chain)
        assert applied.kernel == "vectorized"
        assert applied.dtype == np.float32
        # All-None spec is the identity.
        assert KernelSpec().apply(chain) is chain

    def test_label(self):
        assert KernelSpec(name="vectorized", dtype="float32").label == (
            "vectorized/float32"
        )

    def test_hashable_for_coalescing_keys(self):
        a = KernelSpec(name="vectorized", dtype="float32")
        b = KernelSpec(name="vectorized", dtype=np.float32)
        assert hash(a) == hash(b) and a == b


# ----------------------------------------------------------------------
# ExecutionOptions construction / validation
# ----------------------------------------------------------------------


class TestExecutionOptions:
    def test_defaults_are_historical_behaviour(self):
        opts = ExecutionOptions()
        assert opts.kernel is None
        assert opts.workers is None
        assert opts.on_error == "raise"
        assert not opts.needs_sharding

    def test_kernel_string_coerced(self):
        opts = ExecutionOptions(kernel="vectorized:float32")
        assert isinstance(opts.kernel, KernelSpec)
        assert opts.kernel.dtype == "float32"

    def test_validation(self):
        with pytest.raises(ValueError, match="workers"):
            ExecutionOptions(workers=0)
        with pytest.raises(ValueError, match="timeout"):
            ExecutionOptions(timeout=0)
        with pytest.raises(ValueError, match="on_error"):
            ExecutionOptions(on_error="retry")
        assert set(ON_ERROR_MODES) == {"raise", "skip", "fallback"}
        assert set(KERNEL_DTYPES) == {"float64", "float32"}

    def test_needs_sharding_dispatch(self):
        assert ExecutionOptions(workers=2).needs_sharding
        assert ExecutionOptions(on_error="skip").needs_sharding
        assert ExecutionOptions(resilience=True).needs_sharding
        assert not ExecutionOptions(kernel="vectorized").needs_sharding

    def test_resolved_resilience_expands_shorthand(self):
        from repro.resilience import ResilienceConfig

        assert ExecutionOptions().resolved_resilience() is None
        assert isinstance(
            ExecutionOptions(resilience=True).resolved_resilience(),
            ResilienceConfig,
        )
        cfg = ResilienceConfig()
        assert ExecutionOptions(resilience=cfg).resolved_resilience() is cfg

    def test_merged_overrides(self):
        base = ExecutionOptions(workers=2)
        merged = base.merged(on_error="skip")
        assert merged.workers == 2 and merged.on_error == "skip"
        assert base.on_error == "raise"  # frozen original untouched


# ----------------------------------------------------------------------
# from_legacy bridge
# ----------------------------------------------------------------------


class TestFromLegacy:
    def test_options_passthrough(self):
        opts = ExecutionOptions(workers=3)
        assert ExecutionOptions.from_legacy(opts, "site") is opts

    def test_options_plus_legacy_is_an_error(self):
        with pytest.raises(ValueError, match="not both"):
            ExecutionOptions.from_legacy(
                ExecutionOptions(), "site", workers=2
            )

    def test_legacy_kwargs_build_options_and_warn_once(self):
        with pytest.warns(DeprecationWarning, match="'workers'"):
            opts = ExecutionOptions.from_legacy(
                None, "api.solve_batch", workers=2
            )
        assert opts.workers == 2
        # Second use of the same (site, kwarg): silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ExecutionOptions.from_legacy(None, "api.solve_batch", workers=4)
        # A different site still warns.
        with pytest.warns(DeprecationWarning, match="api.serve"):
            ExecutionOptions.from_legacy(None, "api.serve", workers=2)

    def test_no_legacy_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = ExecutionOptions.from_legacy(None, "site")
        assert opts == ExecutionOptions()

    def test_warn_false_suppresses(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = ExecutionOptions.from_legacy(
                None, "site", kernel="vectorized", warn=False
            )
        assert opts.kernel == KernelSpec(name="vectorized")


# ----------------------------------------------------------------------
# The options object reaches the execution layers
# ----------------------------------------------------------------------


class TestWiring:
    def _targets(self, chain, n=3):
        rng = np.random.default_rng(SEED)
        return np.stack([
            chain.end_position(chain.random_configuration(rng))
            for _ in range(n)
        ])

    def test_options_kernel_matches_legacy_kernel(self):
        chain = paper_chain(12)
        targets = self._targets(chain)
        via_options = api.solve_batch(
            chain,
            targets,
            seed=SEED,
            options=ExecutionOptions(kernel="vectorized"),
        )
        with pytest.warns(DeprecationWarning):
            via_legacy = api.solve_batch(
                chain, targets, seed=SEED, kernel="vectorized"
            )
        for a, b in zip(via_options, via_legacy):
            assert np.array_equal(a.q, b.q)
            assert a.iterations == b.iterations

    def test_kernel_configured_twice_is_an_error(self):
        chain = paper_chain(12)
        with pytest.raises(ValueError, match="kernel"):
            make_batch_solver(
                "JT-Speculation",
                chain,
                config=SolverConfig(kernel=KernelSpec(name="scalar")),
                options=ExecutionOptions(kernel="vectorized"),
            )

    def test_server_config_normalises_legacy_fields(self):
        # Legacy dataclass fields fold into the typed policy silently (they
        # are still first-class fields, not deprecated kwargs).
        cfg = ServerConfig(workers=2, on_error="skip")
        assert cfg.options.workers == 2
        assert cfg.options.on_error == "skip"

    def test_server_config_rejects_both_forms(self):
        with pytest.raises(ValueError, match="not both"):
            ServerConfig(workers=2, options=ExecutionOptions(workers=2))

    def test_server_config_accepts_options_directly(self):
        opts = ExecutionOptions(
            kernel=KernelSpec(name="vectorized", dtype="float32"),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = ServerConfig(options=opts)
        assert cfg.options is opts

    def test_public_reexports(self):
        import repro

        assert repro.ExecutionOptions is ExecutionOptions
        assert repro.KernelSpec is KernelSpec
        from repro.parallel.pool import ON_ERROR_MODES as pool_modes

        assert pool_modes is ON_ERROR_MODES
