"""CLI commands: configs, outputs, determinism, exit codes."""

import dataclasses
import os

import numpy as np
import pytest

from z2wilson.circuits import (ControlledPauliExp, marginal_bit_probability,
                               run_circuit)
from z2wilson.cli import (EXIT_CONFIG, EXIT_OK, ConfigError, RunConfig,
                          load_config, main, resolve_lattice)
from z2wilson.gauge import Z2Model, project_to_sector
from z2wilson.lattice import build_cross, build_rect, lattice_to_text
from z2wilson.programs import (LoopProgram, Temporal, program_to_text,
                               staircase_default)
from z2wilson.trotter import trotterized_loop_operator
from z2wilson.wilson import hadamard_test_circuit


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None, {})
        assert cfg.lattice == "cross"
        assert cfg.lam == 10.0
        assert cfg.nt == (8, 16, 32, 64, 128)

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("lam=2.5\nnt=4,8\nseed=99   # comment\n")
        cfg = load_config(str(path), {"lam": "7"})
        assert cfg.lam == 7.0
        assert cfg.nt == (4, 8)
        assert cfg.seed == 99

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wibble=1\n")
        with pytest.raises(ConfigError):
            load_config(str(path), {})

    def test_bad_nt(self):
        with pytest.raises(ConfigError):
            load_config(None, {"nt": "8,4"})
        with pytest.raises(ConfigError):
            load_config(None, {"nt": "x"})

    def test_hash_stable_and_sensitive(self):
        a = load_config(None, {})
        b = load_config(None, {})
        c = load_config(None, {"lam": "3"})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_resolve_rect(self):
        cfg = RunConfig(lattice="rect:3x2")
        lat = resolve_lattice(cfg)
        assert lat.n_links == 17

    def test_resolve_lattice_file(self, tmp_path):
        path = tmp_path / "lat.txt"
        path.write_text(lattice_to_text(build_rect(1, 1)))
        cfg = RunConfig(lattice=str(path))
        assert resolve_lattice(cfg).n_links == 4

    def test_resolve_garbage(self):
        with pytest.raises(ConfigError):
            resolve_lattice(RunConfig(lattice="pentagon"))


class TestGroundState:
    def test_lam0_output(self, capsys):
        code, out, _ = run_main(capsys, "ground-state", "--lattice", "cross",
                                "--lambda", "0")
        assert code == EXIT_OK
        assert "sector_dim 32" in out
        assert "ground_energy -16" in out

    def test_lam10_pinned(self, capsys):
        code, out, _ = run_main(capsys, "ground-state", "--lambda", "10")
        assert code == EXIT_OK
        line = next(l for l in out.splitlines()
                    if l.startswith("ground_energy"))
        assert float(line.split()[1]) == pytest.approx(-51.917375245849549,
                                                       abs=1e-9)

    def test_rect11_closed_form(self, capsys):
        code, out, _ = run_main(capsys, "ground-state", "--lattice",
                                "rect:1x1", "--lambda", "1")
        assert code == EXIT_OK
        line = next(l for l in out.splitlines()
                    if l.startswith("ground_energy"))
        assert float(line.split()[1]) == pytest.approx(-np.sqrt(17.0),
                                                       abs=1e-12)

    def test_config_error_exit_2(self, capsys):
        code, _, err = run_main(capsys, "ground-state", "--lattice", "bogus")
        assert code == EXIT_CONFIG
        assert "error" in err

    @pytest.mark.parametrize("command", ["ground-state", "sweep", "measure"])
    def test_degenerate_exit_3(self, capsys, monkeypatch, tmp_path, command):
        import warnings as _w
        import z2wilson.cli as cli_mod
        from z2wilson.gauge import DegenerateGroundStateWarning

        # ground-state solves in sector coordinates, the others embed
        solver = ("sector_ground_state" if command == "ground-state"
                  else "ground_state")
        real = getattr(cli_mod, solver)

        def warn_and_solve(model, sector, gap_tolerance=1e-10):
            _w.warn("forced", DegenerateGroundStateWarning)
            return real(model, sector)

        monkeypatch.setattr(cli_mod, solver, warn_and_solve)
        out_path = tmp_path / "out.txt"
        code, out, _ = run_main(capsys, command, "--nt", "2",
                                "--out", str(out_path))
        assert code == 3
        assert out.endswith("degenerate_ground_state true\n")
        if command != "ground-state":     # nothing is written before it
            assert out == "degenerate_ground_state true\n"
        assert not out_path.exists()

    def test_state_dump(self, capsys, tmp_path):
        out_path = tmp_path / "gs.txt"
        code, _, _ = run_main(capsys, "ground-state", "--lambda", "10",
                              "--out", str(out_path))
        assert code == EXIT_OK
        text = out_path.read_text()
        assert text.startswith("# z2wilson")
        assert "BASIS 0 0" in text
        amp_lines = [l for l in text.splitlines() if l.startswith("AMP")]
        assert len(amp_lines) == 32
        norm = sum(float(l.split()[2]) ** 2 + float(l.split()[3]) ** 2
                   for l in amp_lines)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_rect4x2_never_builds_the_full_space(self, capsys, tmp_path):
        import tracemalloc

        out_path = tmp_path / "gs.txt"
        run_main(capsys, "ground-state", "--lattice", "rect:1x1")  # warm-up
        tracemalloc.start()
        try:
            code, _, _ = run_main(capsys, "ground-state", "--lattice",
                                  "rect:4x2", "--out", str(out_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        # one full-space vector of 2**22 amplitudes is 64 MB
        assert peak < 16 * 2 ** 20

    def test_above_the_full_space_link_cap(self, capsys):
        # rect:9x1 has 28 links but a 512-dimensional sector
        code, out, _ = run_main(capsys, "ground-state", "--lattice",
                                "rect:9x1")
        assert code == EXIT_OK
        assert "sector_dim 512" in out

    @pytest.mark.parametrize("lattice, message", [
        # 38 links, dim 2**15: refused before the dense Hamiltonian
        ("rect:5x3", "sector dimension 32768 exceeds the dense-matrix limit"),
        # 60 links, dim 2**25: refused before the masks are spanned
        ("rect:5x5", "sector dimension 2**25 exceeds the enumeration limit"),
        ("rect:6x5", "sector masks are limited to 63 links"),
    ])
    def test_refuses_oversized_lattices(self, capsys, lattice, message):
        code, _, err = run_main(capsys, "ground-state", "--lattice", lattice)
        assert code == EXIT_CONFIG
        assert message in err


class TestSweep:
    def test_small_sweep_csv(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _, _ = run_main(capsys, "sweep", "--nt", "4,8,16",
                              "--out", str(out_path))
        assert code == EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("# z2wilson")
        assert any(l == "n_T,op_fidelity,gs_fidelity" for l in lines)
        assert any(l.startswith("# fit op:") for l in lines)
        assert any(l.startswith("# min_n_T_at_threshold") for l in lines)

    def test_lam0_all_ones(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, _, _ = run_main(capsys, "sweep", "--lambda", "0", "--nt",
                              "2,4,8", "--out", str(out_path))
        assert code == EXIT_OK
        rows = [l for l in out_path.read_text().splitlines()
                if l and l[0].isdigit()]
        for row in rows:
            _, fop, fgs = row.split(",")
            assert float(fop) == pytest.approx(1.0, abs=1e-12)
            assert float(fgs) == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_main(capsys, "sweep", "--nt", "4,8,16", "--seed", "7",
                 "--out", str(a))
        run_main(capsys, "sweep", "--nt", "4,8,16", "--seed", "7",
                 "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_program_file(self, capsys, tmp_path):
        prog_path = tmp_path / "loop.prog"
        prog_path.write_text(program_to_text(staircase_default()))
        out_path = tmp_path / "r.csv"
        code, _, _ = run_main(capsys, "sweep", "--program", str(prog_path),
                              "--nt", "4,8,16", "--out", str(out_path))
        assert code == EXIT_OK

    def test_single_nt_9(self, capsys, tmp_path):
        out_path = tmp_path / "r.csv"
        code, _, _ = run_main(capsys, "sweep", "--nt", "9",
                              "--out", str(out_path))
        assert code == EXIT_OK
        row = next(l for l in out_path.read_text().splitlines()
                   if l.startswith("9,"))
        _, _, fgs = row.split(",")
        assert float(fgs) == pytest.approx(0.97756196884951441, abs=1e-10)


class TestMeasure:
    def test_identity_program(self, capsys, tmp_path):
        prog_path = tmp_path / "id.prog"
        prog_path.write_text("# empty program\n")
        code, out, _ = run_main(capsys, "measure", "--program",
                                str(prog_path), "--nt", "1")
        assert code == EXIT_OK
        line = next(l for l in out.splitlines()
                    if l.startswith("p_plus_exact"))
        assert float(line.split()[1]) == pytest.approx(1.0, abs=1e-12)

    def test_sampled_within_binomial_bound(self, capsys, tmp_path):
        code, out, _ = run_main(capsys, "measure", "--nt", "2", "--shots",
                                "10000", "--seed", "42")
        assert code == EXIT_OK
        vals = {l.split()[0]: float(l.split()[1]) for l in out.splitlines()}
        p, ps = vals["p_plus_exact"], vals["p_plus_sampled"]
        bound = 5 * np.sqrt(max(p * (1 - p), 1e-12) / 10000)
        assert abs(ps - p) <= bound

    def test_shot_reproducibility(self, capsys):
        _, out1, _ = run_main(capsys, "measure", "--nt", "2", "--shots",
                              "200", "--seed", "5")
        _, out2, _ = run_main(capsys, "measure", "--nt", "2", "--shots",
                              "200", "--seed", "5")
        assert out1 == out2

    def test_shots_drawn_from_the_single_circuit_run(self, capsys,
                                                      monkeypatch):
        import z2wilson.wilson as wilson_mod

        real = wilson_mod.run_circuit
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wilson_mod, "run_circuit", counting)
        code, out, _ = run_main(capsys, "measure", "--nt", "2", "--shots",
                                "200", "--seed", "5")
        assert code == EXIT_OK
        assert len(calls) == 1
        # the sampled value of the two-run implementation, bit for bit
        assert "p_plus_sampled 0.46999999999999997\n" in out
        # the gate route's digits, bit for bit: the kernel layout that runs
        # a rotation never changes its result, the box V-chains run as
        # exact parity swaps, and the box resets, which find the ancilla
        # exactly spin-down, no longer rescale the state, so p_plus_exact
        # sits 4.9e-16 from p_plus_oracle 0.42808965237385715
        assert "p_plus_exact 0.42808965237385666\n" in out
        assert "re_wilson_loop -0.14382069525228669\n" in out

    def test_refuses_the_full_space_above_26_links(self, capsys):
        code, _, err = run_main(capsys, "measure", "--lattice", "rect:9x1",
                                "--nt", "1")
        assert code == EXIT_CONFIG
        assert "full-space routes are limited to 26 links" in err

    def test_circuit_matches_oracle_line(self, capsys):
        _, out, _ = run_main(capsys, "measure", "--nt", "2")
        vals = {l.split()[0]: float(l.split()[1]) for l in out.splitlines()}
        assert vals["p_plus_exact"] == pytest.approx(vals["p_plus_oracle"],
                                                     abs=1e-10)


# Rounding contract of the gate route.  Each gate rounds every amplitude
# by about one ulp, so p_plus_exact may drift from the sector oracle's
# p_plus_oracle by a few ulp per gate: two ulp per gate is 5.4e-13 for the
# 1225 gates of the cross at n_T = 9.  Each mutation below must miss that
# tolerance by at least 10**3, or the tolerance is too loose.
ULP_PER_GATE = 2 * np.finfo(float).eps
MUTATION_MARGIN = 1e3


def measured(out):
    return {l.split()[0]: float(l.split()[1]) for l in out.splitlines()}


def circuit_p_plus(circuit, control, psi):
    final, _ = run_circuit(circuit, psi)
    return marginal_bit_probability(final, control, 0)


def sector_p_plus(model, sector, coords, program, n_T):
    w = trotterized_loop_operator(model, sector, program, n_T)
    return (2 + 2 * np.real(np.vdot(coords, w.matrix @ coords))) / 4


class TestMeasureRoundingContract:
    @pytest.mark.parametrize("lam", ["2", "5", "10", "20"])
    def test_gate_route_within_ulps_per_gate_of_oracle(self, capsys, lam):
        code, out, _ = run_main(capsys, "measure", "--nt", "9", "--lambda",
                                lam)
        assert code == EXIT_OK
        vals = measured(out)
        circuit, _ = hadamard_test_circuit(
            Z2Model(build_cross(), float(lam)), staircase_default(), 9)
        assert len(circuit.gates) == 1225
        tol = ULP_PER_GATE * len(circuit.gates)
        assert abs(vals["p_plus_exact"] - vals["p_plus_oracle"]) <= tol
        assert vals["re_wilson_loop"] == 2 * vals["p_plus_exact"] - 1

    @pytest.fixture(scope="class")
    def contract(self, cross_model, cross_sector, cross_ground):
        """(psi, oracle p_plus, tolerance, gate circuit, control) at n_T=2."""
        _, gs = cross_ground
        coords = project_to_sector(cross_sector, gs.amps)
        circuit, control = hadamard_test_circuit(cross_model,
                                                 staircase_default(), 2)
        oracle = sector_p_plus(cross_model, cross_sector, coords,
                               staircase_default(), 2)
        tol = ULP_PER_GATE * len(circuit.gates)
        assert abs(circuit_p_plus(circuit, control, gs) - oracle) <= tol
        return gs, oracle, tol, circuit, control

    def assert_missed(self, contract, p_plus):
        _, oracle, tol, _, _ = contract
        assert abs(p_plus - oracle) >= MUTATION_MARGIN * tol

    def test_mutation_v_gate_sign_flipped(self, contract):
        psi, _, _, circuit, control = contract
        gates = list(circuit.gates)
        i = next(k for k, g in enumerate(gates)
                 if isinstance(g, ControlledPauliExp) and g.basis == "x-")
        gates[i] = dataclasses.replace(gates[i], theta=-gates[i].theta)
        mutant = dataclasses.replace(circuit, gates=gates)
        self.assert_missed(contract, circuit_p_plus(mutant, control, psi))

    def test_mutation_box_dropped(self, contract):
        psi, _, _, circuit, control = contract
        gates = list(circuit.gates)
        i = next(k for k, g in enumerate(gates)
                 if isinstance(g, ControlledPauliExp) and g.basis == "x-")
        # V-chain, controlled ancilla Z, reversed V-chain
        box = gates[i: i + 9]
        assert [g.basis for g in box] == ["x-"] * 4 + ["z"] + ["x-"] * 4
        mutant = dataclasses.replace(circuit, gates=gates[:i] + gates[i + 9:])
        self.assert_missed(contract, circuit_p_plus(mutant, control, psi))

    def test_mutation_wrong_modified_link(self, contract, cross_model):
        psi, _, _, _, control = contract
        steps = list(staircase_default().steps)
        bottom = cross_model.lattice.plaquettes[0]
        # the band cuts the plaquette's left and top links, not left and right
        steps[1] = Temporal(steps[1].tau, {bottom[3], bottom[2]})
        mutant, _ = hadamard_test_circuit(cross_model, LoopProgram(steps), 2)
        self.assert_missed(contract, circuit_p_plus(mutant, control, psi))

    def test_mutation_n_T_off_by_one(self, contract, cross_model):
        psi, _, _, _, control = contract
        mutant, _ = hadamard_test_circuit(cross_model, staircase_default(), 3)
        self.assert_missed(contract, circuit_p_plus(mutant, control, psi))


class TestNumericalFailure:
    def test_exit_4_on_unitarity_drift(self, capsys, monkeypatch, tmp_path):
        import z2wilson.trotter as trotter_mod
        from z2wilson.gauge import SectorOperator

        real = trotter_mod.trotterized_loop_operator

        def drifting(model, sector, program, n_T):
            w = real(model, sector, program, n_T)
            return SectorOperator(w.matrix * 1.001)   # breaks unitarity

        monkeypatch.setattr(trotter_mod, "trotterized_loop_operator", drifting)
        code, _, err = run_main(capsys, "sweep", "--nt", "2,4",
                                "--out", str(tmp_path / "r.csv"))
        assert code == 4
        assert "unitarity" in err


class TestExportCircuit:
    def test_program_circuit_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.qc", tmp_path / "b.qc"
        for path in (a, b):
            code, _, _ = run_main(capsys, "export-circuit", "--nt", "9",
                                  "--out", str(path))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert "PEXP" in text
        assert "# census" in text

    def test_empty_program(self, capsys, tmp_path):
        prog_path = tmp_path / "id.prog"
        prog_path.write_text("")
        code, out, _ = run_main(capsys, "export-circuit", "--program",
                                str(prog_path), "--nt", "1")
        assert code == EXIT_OK
        assert "total=0" in out

    def test_loop_constructions_census_ratio(self, capsys, tmp_path):
        totals = {}
        for kind in ("plaquette-loop", "link-loop"):
            for k in (2, 4):
                out_path = tmp_path / f"{kind}-{k}.qc"
                code, _, _ = run_main(capsys, "export-circuit", "--kind",
                                      kind, "--lattice", f"rect:{k}x{k}",
                                      "--out", str(out_path))
                assert code == EXIT_OK
                census = next(l for l in out_path.read_text().splitlines()
                              if l.startswith("# census"))
                totals[(kind, k)] = int(census.split("total=")[1])
        # doubling the loop size quadruples area-law counts but only
        # doubles the linear construction (up to constant overhead)
        plaq_ratio = totals[("plaquette-loop", 4)] / totals[("plaquette-loop", 2)]
        link_ratio = totals[("link-loop", 4)] / totals[("link-loop", 2)]
        assert plaq_ratio > 3.0
        assert link_ratio < 2.2

    def test_bad_kind(self, capsys):
        code, _, err = run_main(capsys, "export-circuit", "--kind", "magic")
        assert code == EXIT_CONFIG


class TestValidateCommand:
    def test_ok(self, capsys):
        code, out, _ = run_main(capsys, "validate", "--lattice", "rect:2x2")
        assert code == EXIT_OK
        assert "ok" in out

    def test_bad_lattice_file(self, capsys, tmp_path):
        path = tmp_path / "bad.lat"
        path.write_text("LATTICE v=2 e=1 p=0\nLINK 0 0 0\n")
        code, _, err = run_main(capsys, "validate", "--lattice", str(path))
        assert code == EXIT_CONFIG

    def test_program_checked_when_given(self, capsys, tmp_path):
        prog = tmp_path / "bad.prog"
        prog.write_text("SPATIAL 0\n")
        code, out, _ = run_main(capsys, "validate", "--lattice", "rect:1x1",
                                "--program", str(prog))
        assert code == EXIT_CONFIG
        assert "not gauge invariant" in out
