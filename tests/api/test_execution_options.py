"""API tier for the unified execution policy objects.

Pins the contracts the redesign promised:

* :class:`KernelSpec` coercion (``"mode"``, ``"mode:dtype"``, numpy dtypes)
  and chain application;
* :class:`ExecutionOptions` validation and coercion of ``options=``;
* the options object actually reaches the execution layers (registry,
  serving config, api entry points) rather than being decorative;
* ``options=`` is the only spelling: the per-entry-point keywords it
  replaced (``kernel=``, ``workers=``, ``timeout=``, ``on_error=``,
  ``resilience=``) raise ``TypeError``.
"""

import warnings

import numpy as np
import pytest

from repro import api
from repro.core.result import SolverConfig
from repro.evaluation.experiments import PaperExperiments
from repro.execution import (
    KERNEL_DTYPES,
    ON_ERROR_MODES,
    ExecutionOptions,
    KernelSpec,
    resolve_kernel_dtype,
)
from repro.kinematics.robots import paper_chain
from repro.serving import IKServer, SessionManager, SolveRequest
from repro.serving.server import ServerConfig
from repro.solvers.registry import make_batch_solver
from repro.workloads.suite import EvaluationSuite
from tests.serving.runs import run_ends

SEED = 20170619


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


# ----------------------------------------------------------------------
# options= normalisation at the entry points (ExecutionOptions.coerce,
# which took over from the deleted from_legacy bridge)
# ----------------------------------------------------------------------


class TestFromLegacy:
    def test_options_passthrough(self):
        opts = ExecutionOptions(workers=3)
        assert ExecutionOptions.coerce(opts) is opts
        with pytest.raises(TypeError, match="ExecutionOptions"):
            ExecutionOptions.coerce({"workers": 3})

    def test_no_legacy_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opts = ExecutionOptions.coerce(None)
        assert opts == ExecutionOptions()


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

    def test_options_kernel_matches_applied_chain(self):
        # options.kernel is applied once, at the entry point: identical to
        # handing the entry point a chain already built for that kernel.
        chain = paper_chain(12)
        targets = self._targets(chain)
        via_options = api.solve_batch(
            chain,
            targets,
            seed=SEED,
            options=ExecutionOptions(kernel="vectorized"),
        )
        via_chain = api.solve_batch(
            KernelSpec(name="vectorized").apply(chain), targets, seed=SEED
        )
        for a, b in zip(via_options, via_chain):
            assert np.array_equal(a.q, b.q)
            assert a.iterations == b.iterations

    def test_spec_chunk_reaches_quick_ik_engine(self):
        chain = paper_chain(12)
        spec = KernelSpec(name="vectorized", dtype="float32", chunk=16)
        engine = make_batch_solver(
            "JT-Speculation", chain, options=ExecutionOptions(kernel=spec)
        )
        assert engine.chunk == 16
        assert engine.chain.kernel == "vectorized"
        assert engine.chain.dtype == np.float32
        # An explicit engine option still wins over the spec's chunk.
        engine = make_batch_solver(
            "JT-Speculation", chain, options=ExecutionOptions(kernel=spec),
            chunk=4,
        )
        assert engine.chunk == 4

    def test_twin_built_once_across_calls_and_served_runs(self, monkeypatch):
        """Entry points apply the spec per solve call and per served run;
        the source chain builds its vectorized twin once and hands the
        same twin back after that."""
        from repro.kinematics import kernels

        built = []
        build = kernels.VectorizedKernels.__init__

        def counting_build(self, chain):
            built.append(chain.name)
            build(self, chain)

        monkeypatch.setattr(kernels.VectorizedKernels, "__init__", counting_build)
        options = ExecutionOptions(kernel="vectorized")
        chain = paper_chain(12)
        targets = self._targets(chain)
        for _ in range(4):
            api.solve_batch(chain, targets, seed=SEED, options=options)
        assert built == ["dadu-12dof"]

        with api.serve(
            options=ExecutionOptions(kernel="vectorized", on_error="skip")
        ) as server:
            # One request at a time, each sent once the last run ended:
            # each opens (and drains) its own run.
            for target in targets:
                with run_ends(server):
                    server.submit(
                        SolveRequest("dadu-12dof", target, seed=SEED)
                    ).result(timeout=60)
            assert server.stats().batches == len(targets)
        # The server's own dadu-12dof chain: one more twin, not one per run.
        assert built == ["dadu-12dof"] * 2

    def test_server_config_defaults_to_skip(self):
        # The serving default policy: one bad request degrades into a
        # typed placeholder instead of failing its batch-mates.
        assert ServerConfig().options == ExecutionOptions(on_error="skip")
        with pytest.raises(TypeError, match="ExecutionOptions"):
            ServerConfig(options={"on_error": "skip"})

    def test_server_config_accepts_options_directly(self):
        opts = ExecutionOptions(
            kernel=KernelSpec(name="vectorized", dtype="float32"),
        )
        cfg = ServerConfig(options=opts)
        assert cfg.options is opts

    def test_public_reexports(self):
        import repro

        assert repro.ExecutionOptions is ExecutionOptions
        assert repro.KernelSpec is KernelSpec
        # The failure-policy names have one public home.
        import repro.parallel.pool as pool

        assert "ON_ERROR_MODES" not in pool.__all__


# ----------------------------------------------------------------------
# options= is the only spelling
# ----------------------------------------------------------------------

TARGET = [0.3, 0.2, 0.1]


def _open_session(**kwargs):
    server = IKServer()
    try:
        return SessionManager(server).open("dadu-12dof", **kwargs)
    finally:
        server.close()


REMOVED_SPELLINGS = {
    "api.solve(kernel=)": lambda: api.solve(
        "dadu-12dof", TARGET, kernel="vectorized"),
    "api.solve(resilience=)": lambda: api.solve(
        "dadu-12dof", TARGET, resilience=True),
    "api.solve_batch(kernel=)": lambda: api.solve_batch(
        "dadu-12dof", [TARGET], kernel="vectorized"),
    "api.solve_batch(workers=)": lambda: api.solve_batch(
        "dadu-12dof", [TARGET], workers=1),
    "api.solve_batch(timeout=)": lambda: api.solve_batch(
        "dadu-12dof", [TARGET], timeout=30.0),
    "api.solve_batch(on_error=)": lambda: api.solve_batch(
        "dadu-12dof", [TARGET], on_error="skip"),
    "api.solve_batch(resilience=)": lambda: api.solve_batch(
        "dadu-12dof", [TARGET], resilience=True),
    "make_batch_solver(workers=)": lambda: make_batch_solver(
        "JT-Speculation", paper_chain(12), workers=1),
    "make_batch_solver(timeout=)": lambda: make_batch_solver(
        "JT-Speculation", paper_chain(12), timeout=30.0),
    "make_batch_solver(on_error=)": lambda: make_batch_solver(
        "JT-Speculation", paper_chain(12), on_error="skip"),
    "make_batch_solver(resilience=)": lambda: make_batch_solver(
        "JT-Speculation", paper_chain(12), resilience=True),
    "ServerConfig(workers=)": lambda: ServerConfig(workers=2),
    "ServerConfig(timeout=)": lambda: ServerConfig(timeout=30.0),
    "ServerConfig(on_error=)": lambda: ServerConfig(on_error="skip"),
    "api.serve(on_error=)": lambda: api.serve(on_error="skip", start=False),
    "SolverConfig(kernel=)": lambda: SolverConfig(kernel="vectorized"),
    "SolveRequest(kernel=)": lambda: SolveRequest(
        "dadu-12dof", TARGET, kernel="vectorized"),
    "SessionManager.open(kernel=)": lambda: _open_session(kernel="vectorized"),
    "EvaluationSuite(workers=)": lambda: EvaluationSuite(dofs=(12,), workers=2),
    "EvaluationSuite(kernel=)": lambda: EvaluationSuite(
        dofs=(12,), kernel="vectorized"),
    "PaperExperiments(workers=)": lambda: PaperExperiments(workers=2),
}


@pytest.mark.parametrize("spelling", sorted(REMOVED_SPELLINGS))
def test_removed_spelling_raises_type_error(spelling):
    with pytest.raises(TypeError):
        REMOVED_SPELLINGS[spelling]()
