"""Experiment harness: regenerates every figure and table of the paper.

:class:`PaperExperiments` owns a deterministic workload
(:class:`~repro.workloads.suite.EvaluationSuite`) and lazily caches solver
statistics, so e.g. Table 2 and Figure 5 share the same underlying runs.

All headline numbers flow from three ingredients:

* iteration statistics of real solver runs (Figures 4, 5a, 5b);
* the platform cost models priced with those statistics (Table 2);
* energy = power x time, with IKAcc's energy integrated by its component
  model (Table 3).
"""

from __future__ import annotations

import numpy as np

from repro.core.quick_ik import QuickIKSolver
from repro.core.result import SolverConfig
from repro.evaluation import paper_data
from repro.evaluation.tables import TableResult
from repro.ikacc.accelerator import IKAccRunResult
from repro.ikacc.config import IKAccConfig
from repro.platforms.atom import AtomModel
from repro.platforms.ikacc_platform import IKAccPlatform
from repro.platforms.tx1 import TX1Model
from repro.solvers.jacobian_transpose import JacobianTransposeSolver
from repro.solvers.pseudoinverse import PseudoinverseSolver
from repro.workloads.suite import EvaluationSuite, SolverStats

__all__ = ["PaperExperiments"]


class PaperExperiments:
    """Regenerates Figures 4/5 and Tables 2/3 plus the headline claims.

    Parameters
    ----------
    suite:
        Workload; defaults to the paper sweep (12/25/50/75/100 DOF,
        ``REPRO_TARGETS`` targets each, reachable-target distribution).
        The suite's ``options`` set the kernel and worker processes of
        every solver run.
    speculations:
        Quick-IK ``Max`` (paper operating point: 64).
    ikacc_config:
        Accelerator configuration (paper design point: 32 SSUs, 1 GHz).
    """

    def __init__(
        self,
        suite: EvaluationSuite | None = None,
        speculations: int = 64,
        ikacc_config: IKAccConfig | None = None,
        max_iterations: int | None = None,
    ) -> None:
        self.suite = suite or EvaluationSuite()
        self.speculations = speculations
        self.solver_config = SolverConfig(
            tolerance=paper_data.ACCURACY_M,
            max_iterations=(
                max_iterations
                if max_iterations is not None
                else paper_data.MAX_ITERATIONS
            ),
            record_history=False,
        )
        self.atom = AtomModel()
        self.tx1 = TX1Model()
        self.ikacc = IKAccPlatform(
            ikacc_config or IKAccConfig(speculations=speculations)
        )
        self._stats: dict[tuple[str, int, int], SolverStats] = {}
        self._ikacc_runs: dict[int, list[IKAccRunResult]] = {}

    # ------------------------------------------------------------------
    # Cached runs
    # ------------------------------------------------------------------

    def _make_solver(self, name: str, dof: int, speculations: int):
        chain = self.suite.chain(dof)
        if name == "JT-Serial":
            return JacobianTransposeSolver(chain, config=self.solver_config)
        if name == "J-1-SVD":
            return PseudoinverseSolver(
                chain, config=self.solver_config, error_clamp=None
            )
        if name == "JT-Speculation":
            return QuickIKSolver(
                chain, speculations=speculations, config=self.solver_config
            )
        raise KeyError(f"unknown method {name!r}")

    def stats(
        self, name: str, dof: int, speculations: int | None = None
    ) -> SolverStats:
        """Aggregate statistics of ``name`` at ``dof`` (cached)."""
        specs = self.speculations if speculations is None else speculations
        key = (name, dof, specs if name == "JT-Speculation" else 1)
        if key not in self._stats:
            solver = self._make_solver(name, dof, specs)
            self._stats[key] = self.suite.run_solver(solver, dof)
        return self._stats[key]

    def ikacc_runs(self, dof: int) -> list[IKAccRunResult]:
        """Cycle-level IKAcc runs over the suite's targets at ``dof``."""
        if dof not in self._ikacc_runs:
            self._ikacc_runs[dof] = self.ikacc.simulate(
                self.suite.chain(dof),
                self.suite.targets(dof),
                rng=self.suite.solver_rng(dof, "JT-IKAcc"),
                solver_config=self.solver_config,
            )
        return self._ikacc_runs[dof]

    def ikacc_mean_ms(self, dof: int) -> float:
        """Mean simulated IKAcc solve time (ms) at ``dof``."""
        runs = self.ikacc_runs(dof)
        return float(np.mean([r.seconds for r in runs])) * 1e3

    def ikacc_mean_energy_mj(self, dof: int) -> float:
        """Mean simulated IKAcc solve energy (mJ) at ``dof``."""
        runs = self.ikacc_runs(dof)
        return float(np.mean([r.energy_j for r in runs])) * 1e3

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------

    def figure4(
        self, speculation_counts: tuple[int, ...] = paper_data.FIGURE4_SPECULATIONS
    ) -> TableResult:
        """Figure 4: Quick-IK iterations vs number of speculations."""
        headers = ["speculations"] + [f"{dof}-DOF" for dof in self.suite.dofs]
        rows = []
        for count in speculation_counts:
            row: list[object] = [count]
            for dof in self.suite.dofs:
                row.append(self.stats("JT-Speculation", dof, count).mean_iterations)
            rows.append(row)
        return TableResult(
            title="Figure 4: iterations vs speculation count (mean per solve)",
            headers=headers,
            rows=rows,
            notes=[
                "paper: iterations decline with speculations; 64 is the "
                "chosen trade-off (128 adds little)",
                f"targets per DOF: {self.suite.targets_per_dof} "
                f"(paper: {paper_data.TARGETS_PER_DOF})",
            ],
        )

    def figure5a(self) -> TableResult:
        """Figure 5(a): iterations per method across the DOF sweep."""
        headers = ["dof", "JT-Serial", "J-1-SVD", "JT-Speculation", "reduction"]
        rows = []
        for dof in self.suite.dofs:
            jt = self.stats("JT-Serial", dof).mean_iterations
            svd = self.stats("J-1-SVD", dof).mean_iterations
            qik = self.stats("JT-Speculation", dof).mean_iterations
            rows.append([dof, jt, svd, qik, 1.0 - qik / jt])
        return TableResult(
            title="Figure 5(a): mean iterations per method",
            headers=headers,
            rows=rows,
            notes=list(paper_data.FIGURE5_CLAIMS[:2]),
        )

    def figure5b(self) -> TableResult:
        """Figure 5(b): computation load = speculations x iterations."""
        headers = ["dof", "JT-Serial", "J-1-SVD", "JT-Speculation"]
        rows = []
        for dof in self.suite.dofs:
            rows.append(
                [
                    dof,
                    self.stats("JT-Serial", dof).mean_work,
                    self.stats("J-1-SVD", dof).mean_work,
                    self.stats("JT-Speculation", dof).mean_work,
                ]
            )
        return TableResult(
            title="Figure 5(b): computation load (speculations x iterations)",
            headers=headers,
            rows=rows,
            notes=[paper_data.FIGURE5_CLAIMS[2]],
        )

    # ------------------------------------------------------------------
    # Tables
    # ------------------------------------------------------------------

    def table2(self) -> TableResult:
        """Table 2: average solve time (ms) per method/platform."""
        headers = [
            "dof",
            "JT-Serial (Atom)",
            "J-1-SVD (Atom)",
            "JT-Speculation (Atom)",
            "JT-TX1",
            "JT-IKAcc",
        ]
        rows = []
        for dof in self.suite.dofs:
            jt = self.stats("JT-Serial", dof)
            svd = self.stats("J-1-SVD", dof)
            qik = self.stats("JT-Speculation", dof)
            rows.append(
                [
                    dof,
                    self.atom.estimate(
                        "JT-Serial", dof, jt.mean_iterations
                    ).milliseconds,
                    self.atom.estimate(
                        "J-1-SVD", dof, svd.mean_iterations
                    ).milliseconds,
                    self.atom.estimate(
                        "JT-Speculation", dof, qik.mean_iterations, self.speculations
                    ).milliseconds,
                    self.tx1.estimate(
                        "JT-Speculation", dof, qik.mean_iterations, self.speculations
                    ).milliseconds,
                    self.ikacc_mean_ms(dof),
                ]
            )
        return TableResult(
            title="Table 2: average solve time (ms)",
            headers=headers,
            rows=rows,
            notes=[
                "Atom/TX1 columns: cost models priced with measured iteration "
                "counts; IKAcc column: cycle-level simulation",
            ],
        )

    def table2_vs_paper(self) -> TableResult:
        """Side-by-side of the Table 2 *ratios* (ours vs the paper's).

        Absolute milliseconds are not comparable across testbeds; the
        architectural ratios are the reproducible quantity.
        """
        ours = self.table2()
        headers = [
            "dof",
            "Atom-QIK/IKAcc (ours)",
            "Atom-QIK/IKAcc (paper)",
            "TX1/IKAcc (ours)",
            "TX1/IKAcc (paper)",
            "JT-Serial/QIK Atom (ours)",
            "JT-Serial/QIK Atom (paper)",
        ]
        rows = []
        for row in ours.rows:
            dof = int(row[0])
            paper = paper_data.TABLE2_MS[dof]
            jt_ms, svd_ms, qik_ms, tx1_ms, ikacc_ms = (
                float(row[1]),
                float(row[2]),
                float(row[3]),
                float(row[4]),
                float(row[5]),
            )
            del svd_ms
            rows.append(
                [
                    dof,
                    qik_ms / ikacc_ms,
                    paper["JT-Speculation"] / paper["JT-IKAcc"],
                    tx1_ms / ikacc_ms,
                    paper["JT-TX1"] / paper["JT-IKAcc"],
                    jt_ms / qik_ms,
                    paper["JT-Serial"] / paper["JT-Speculation"],
                ]
            )
        return TableResult(
            title="Table 2 (derived): cross-platform speedup ratios vs paper",
            headers=headers,
            rows=rows,
        )

    def table3(self) -> TableResult:
        """Table 3: platform details (technology/frequency/power/area)."""
        measured_power = self.ikacc.avg_power_w
        area = self.ikacc.power_model.area_mm2()
        rows = [
            ["Atom", "32nm", "1.86GHz", 10.0, "-"],
            ["TX1", "20nm", "up to 1.9GHz", 4.8, "-"],
            ["IKAcc", "65nm 1.1V", "1GHz", measured_power, area],
        ]
        return TableResult(
            title="Table 3: platform details",
            headers=["platform", "technology", "frequency", "avg power (W)", "area (mm^2)"],
            rows=rows,
            notes=[
                f"paper IKAcc: {paper_data.TABLE3_PLATFORMS['IKAcc']['avg_power_w']} W, "
                f"{paper_data.TABLE3_PLATFORMS['IKAcc']['area_mm2']} mm^2 "
                "(ours from the component-level model)",
            ],
        )

    def energy_table(self) -> TableResult:
        """Energy per solve (mJ) per platform across the DOF sweep.

        The quantitative backing of Section 6.3.2's prose (e.g. IKAcc
        ~1.92 mJ at 100 DOF, TX1 ~1.49 J at 100 DOF).
        """
        headers = [
            "dof",
            "JT-Serial Atom (mJ)",
            "J-1-SVD Atom (mJ)",
            "QIK Atom (mJ)",
            "QIK TX1 (mJ)",
            "QIK IKAcc (mJ)",
        ]
        rows = []
        for dof in self.suite.dofs:
            jt = self.stats("JT-Serial", dof)
            svd = self.stats("J-1-SVD", dof)
            qik = self.stats("JT-Speculation", dof)
            atom_jt = self.atom.estimate("JT-Serial", dof, jt.mean_iterations)
            atom_svd = self.atom.estimate("J-1-SVD", dof, svd.mean_iterations)
            atom_qik = self.atom.estimate(
                "JT-Speculation", dof, qik.mean_iterations, self.speculations
            )
            tx1_qik = self.tx1.estimate(
                "JT-Speculation", dof, qik.mean_iterations, self.speculations
            )
            rows.append(
                [
                    dof,
                    atom_jt.energy_j * 1e3,
                    atom_svd.energy_j * 1e3,
                    atom_qik.energy_j * 1e3,
                    tx1_qik.energy_j * 1e3,
                    self.ikacc_mean_energy_mj(dof),
                ]
            )
        return TableResult(
            title="Energy per solve (mJ)",
            headers=headers,
            rows=rows,
            notes=[
                "Atom/TX1: rated average power x modeled time; IKAcc: "
                "integrated component-level energy",
            ],
        )

    # ------------------------------------------------------------------
    # Headline claims
    # ------------------------------------------------------------------

    def headline_claims(self) -> TableResult:
        """The abstract's numbers, measured on our substrate."""
        reductions = []
        for dof in self.suite.dofs:
            jt = self.stats("JT-Serial", dof).mean_iterations
            qik = self.stats("JT-Speculation", dof).mean_iterations
            reductions.append(1.0 - qik / jt)

        table2 = self.table2()
        jt_over_ikacc = []
        tx1_over_ikacc = []
        for row in table2.rows:
            jt_over_ikacc.append(float(row[1]) / float(row[5]))
            tx1_over_ikacc.append(float(row[4]) / float(row[5]))

        energy = self.energy_table()
        eff_vs_tx1 = []
        eff_vs_atom_svd = []
        for row in energy.rows:
            eff_vs_tx1.append(float(row[4]) / float(row[5]))
            eff_vs_atom_svd.append(float(row[2]) / float(row[5]))

        dof_max = self.suite.dofs[-1]
        rows = [
            [
                "iteration reduction vs JT-Serial",
                f"{min(reductions):.1%}..{max(reductions):.1%}",
                f"{paper_data.HEADLINE_CLAIMS['iteration_reduction']:.0%}",
            ],
            [
                "IKAcc speedup vs JT-Serial (Atom)",
                f"{min(jt_over_ikacc):.0f}x..{max(jt_over_ikacc):.0f}x",
                f"{paper_data.HEADLINE_CLAIMS['speedup_vs_jt_serial_atom']:.0f}x",
            ],
            [
                "IKAcc speedup vs TX1 Quick-IK",
                f"{min(tx1_over_ikacc):.0f}x..{max(tx1_over_ikacc):.0f}x",
                f"{paper_data.HEADLINE_CLAIMS['speedup_vs_tx1']:.0f}x",
            ],
            [
                f"IKAcc energy efficiency vs TX1 (at {dof_max} DOF)",
                f"{eff_vs_tx1[-1]:.0f}x (range {min(eff_vs_tx1):.0f}x..{max(eff_vs_tx1):.0f}x)",
                f"{paper_data.HEADLINE_CLAIMS['energy_efficiency_vs_tx1']:.0f}x",
            ],
            [
                f"IKAcc energy efficiency vs Atom J-1-SVD (at {dof_max} DOF)",
                f"{eff_vs_atom_svd[-1]:.0f}x (range {min(eff_vs_atom_svd):.0f}x..{max(eff_vs_atom_svd):.0f}x)",
                f"{paper_data.HEADLINE_CLAIMS['energy_efficiency_vs_atom_svd']:.0f}x",
            ],
            [
                f"IKAcc ms/solve at {dof_max} DOF",
                f"{self.ikacc_mean_ms(dof_max):.3f} ms",
                f"{paper_data.HEADLINE_CLAIMS['ms_at_100_dof']:.0f} ms",
            ],
            [
                f"IKAcc energy at {dof_max} DOF",
                f"{self.ikacc_mean_energy_mj(dof_max):.3f} mJ",
                f"{paper_data.HEADLINE_CLAIMS['ikacc_energy_100dof_mj']} mJ",
            ],
        ]
        return TableResult(
            title="Headline claims: measured vs paper",
            headers=["claim", "measured (range over DOF sweep)", "paper"],
            rows=rows,
            notes=[
                "absolute ms/mJ depend on the authors' iteration counts "
                "(unpublished); ratios are the reproducible quantity",
            ],
        )

    def all_tables(self) -> dict[str, TableResult]:
        """Every figure/table, keyed by experiment id."""
        return {
            "figure4": self.figure4(),
            "figure5a": self.figure5a(),
            "figure5b": self.figure5b(),
            "table2": self.table2(),
            "table2_ratios": self.table2_vs_paper(),
            "table3": self.table3(),
            "energy": self.energy_table(),
            "headline": self.headline_claims(),
        }
