"""CLI commands: configs, outputs, determinism, exit codes."""

import dataclasses
import errno
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import dense_ground_state, sparse_h_apply
from z2wilson.circuits import (ControlledPauliExp, block_bit_probability,
                               run_blocks)
from z2wilson.cli import (EXIT_BROKEN_PIPE, EXIT_CONFIG, EXIT_DEGENERATE,
                          EXIT_NUMERICAL, EXIT_OK, ConfigError, RunConfig,
                          load_config, main, resolve_lattice)
from z2wilson.gauge import (Z2Model, build_physical_sector,
                            project_to_sector, spectral_bound)
from z2wilson.lattice import (Lattice, _build_from_cells, build_cross,
                              build_rect, lattice_to_text)
from z2wilson.programs import (LoopProgram, Temporal, program_from_text,
                               program_to_text,
                               staircase_default)
from z2wilson.statevec import _bit_probability, run_circuit
from z2wilson.trotter import trotterized_loop_operator
from z2wilson.wilson import hadamard_test_circuit


def ground_state_file(text):
    """Energy and (re, im) AMP rows of a ``ground-state --out`` file."""
    lines = text.splitlines()
    energy = next(float(l.split()[2]) for l in lines
                  if l.startswith("# ground_energy"))
    amps = np.array([[float(x) for x in l.split()[2:]]
                     for l in lines if l.startswith("AMP ")])
    return energy, amps


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def no_eigh(monkeypatch):
    """Fail any eigensolve: the refusals come before one."""
    def refuse(*args, **kwargs):
        raise AssertionError("eigh ran before the refusal")

    monkeypatch.setattr(np.linalg, "eigh", refuse)


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
        for line in ("wibble=1", "exact_oracle=1", "trotter=0"):
            path.write_text(line + "\n")
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

    CONFIGS = [{}, {"lam": "3"}, {"nt": "2,4", "tau": "-1e-3"},
               {"lattice": "rect:4x2", "program": "p.prog", "seed": "7"},
               {"kind": "link-loop", "lam": "nan", "threshold": "0.5"}]

    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_hash_is_hashlib_sha256(self, overrides):
        cfg = load_config(None, overrides)
        text = "\n".join(cfg.as_lines())
        assert cfg.config_hash() == \
            hashlib.sha256(text.encode()).hexdigest()[:16]

    def test_hash_falls_back_to_hashlib(self, monkeypatch):
        # None in sys.modules makes an import of that name fail
        want = [load_config(None, o).config_hash() for o in self.CONFIGS]
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert [load_config(None, o).config_hash()
                for o in self.CONFIGS] == want

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
        import z2wilson.gauge as gauge_mod
        from z2wilson.gauge import DegenerateGroundStateWarning

        # sweep solves in the full space, the others in sector coordinates;
        # each command looks its solver up in z2wilson.gauge when it runs
        solver = "ground_state" if command == "sweep" else "sector_ground_state"
        real = getattr(gauge_mod, solver)

        def warn_and_solve(model, sector):
            _w.warn("forced", DegenerateGroundStateWarning)
            return real(model, sector)

        monkeypatch.setattr(gauge_mod, solver, warn_and_solve)
        out_path = tmp_path / "out.txt"
        nt = [] if command == "ground-state" else ["--nt", "2"]
        # measure writes no file, so it takes no --out
        out_args = ["--out", str(out_path)] if command != "measure" else []
        code, out, _ = run_main(capsys, command, *nt, *out_args)
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

    def test_rect4x2_rows_match_the_complex_solve(self, capsys, tmp_path):
        # the CLI's rows at the benchmark's five couplings against the
        # dense real oracle (the complex solve of sweep's ground_state
        # agrees with it to rounding): the Lanczos solve differs only by
        # rounding, and its state is an eigenvector to rounding
        for lam in ("0.5", "1.0", "2.0", "5.0", "10.0"):
            path = tmp_path / f"gs{lam}.txt"
            code, _, _ = run_main(capsys, "ground-state", "--lattice",
                                  "rect:4x2", "--lambda", lam,
                                  "--out", str(path))
            assert code == EXIT_OK
            model = Z2Model(build_rect(4, 2), float(lam))
            sector = build_physical_sector(model)
            evals, ref = dense_ground_state(model, sector)
            energy, amps = ground_state_file(path.read_text())
            assert amps.shape == (sector.dim, 2)
            assert abs(energy - evals[0]) <= 1e-13
            assert np.max(np.abs(amps[:, 0] - ref)) <= 1e-14
            assert np.all(amps[:, 1] == 0)
            x = amps[:, 0]
            residual = np.linalg.norm(sparse_h_apply(model, sector)(x)
                                      - energy * x)
            assert residual <= 5e-15 * spectral_bound(model)

    def test_rect4x3_solves_matrix_free(self, capsys, monkeypatch,
                                        tmp_path):
        # dim 4096: above what the dense solve took in memory and time,
        # and no dense H is built
        import z2wilson.gauge as gauge_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a dense sector H was built")

        monkeypatch.setattr(gauge_mod, "hamiltonian_in_sector", refuse)
        path = tmp_path / "gs.txt"
        code, out, _ = run_main(capsys, "ground-state", "--lattice",
                                "rect:4x3", "--out", str(path))
        assert code == EXIT_OK
        kv = dict(line.split() for line in out.splitlines())
        assert kv["sector_dim"] == "4096"
        assert float(kv["gauge_violation"]) <= 1e-14
        model = Z2Model(build_rect(4, 3), 10.0)
        sector = build_physical_sector(model)
        energy, amps = ground_state_file(path.read_text())
        assert float(kv["ground_energy"]) == energy
        x = amps[:, 0]
        assert abs(x @ x - 1) <= 1e-14 and np.all(x > 0)
        residual = np.linalg.norm(sparse_h_apply(model, sector)(x)
                                  - energy * x)
        assert residual <= 5e-15 * spectral_bound(model)

    def test_amp_imaginary_fields_are_plus_zero(self, capsys, tmp_path):
        # the sign is fixed on the real vector before the complex cast; the
        # cross at lambda 10 used to print -0 from one solver and 0 from
        # another
        for lattice, lam in [("cross", "10"), ("rect:4x2", "0.5"),
                             ("rect:2x2", "0")]:
            path = tmp_path / "gs.txt"
            code, _, _ = run_main(capsys, "ground-state", "--lattice",
                                  lattice, "--lambda", lam, "--out",
                                  str(path))
            assert code == EXIT_OK
            fields = [line.split()[3] for line in
                      path.read_text().splitlines()
                      if line.startswith("AMP ")]
            assert fields and set(fields) == {"0"}

    def test_above_the_full_space_link_cap(self, capsys):
        # rect:9x1 has 28 links but a 512-dimensional sector
        code, out, _ = run_main(capsys, "ground-state", "--lattice",
                                "rect:9x1")
        assert code == EXIT_OK
        assert "sector_dim 512" in out

    @pytest.mark.parametrize("lattice, message", [
        # 49 links, dim 2**20: refused before the Lanczos basis
        ("rect:5x4", "sector dimension 1048576 exceeds the Lanczos limit"),
        # 60 links, dim 2**25: refused before the masks are spanned
        ("rect:5x5", "sector dimension 2**25 exceeds the enumeration limit"),
        ("rect:6x5", "sector masks are limited to 63 links"),
    ])
    def test_refuses_oversized_lattices(self, capsys, lattice, message):
        code, _, err = run_main(capsys, "ground-state", "--lattice", lattice)
        assert code == EXIT_CONFIG
        assert message in err

    def test_lanczos_limit_refused_within_a_second(self, capsys, no_eigh):
        import time

        start = time.process_time()
        code, out, err = run_main(capsys, "ground-state", "--lattice",
                                  "rect:5x4")
        assert time.process_time() - start < 1.0
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == ("error: sector dimension 1048576 exceeds the Lanczos "
                       "limit: 512 basis vectors take 4096 MiB, the budget "
                       "is 256 MiB\n")

    @pytest.mark.parametrize("command", ["ground-state", "measure"])
    def test_unconverged_solve_exit_4_before_output(self, capsys,
                                                    monkeypatch, tmp_path,
                                                    command):
        import z2wilson.gauge as gauge_mod

        monkeypatch.setattr(gauge_mod, "_KRYLOV_COLS", 8)
        out_path = tmp_path / "gs.txt"
        extra = (["--out", str(out_path)] if command == "ground-state"
                 else ["--nt", "2"])
        code, out, err = run_main(capsys, command, *extra)
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err.startswith("numerical failure: Lanczos ground state not "
                              "converged in 8 basis vectors")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["ground-state", "measure"])
    def test_real_degeneracy_exit_3(self, capsys, monkeypatch, tmp_path,
                                    command):
        # charges at opposite corners of rect:3x3 at lambda 0: the 20
        # shortest strings between them share the lowest energy, and
        # nothing forces the warning
        import z2wilson.gauge as gauge_mod

        real = gauge_mod.build_physical_sector

        def corners(model, charges=None):
            if charges is None:
                charges = [1] * model.lattice.n_vertices
                charges[0] = charges[-1] = -1
            return real(model, charges)

        monkeypatch.setattr(gauge_mod, "build_physical_sector", corners)
        prog = tmp_path / "id.prog"
        prog.write_text("# empty program\n")
        extra = ([] if command == "ground-state"
                 else ["--program", str(prog), "--nt", "1"])
        code, out, _ = run_main(capsys, command, "--lattice", "rect:3x3",
                                "--lambda", "0", *extra)
        assert code == EXIT_DEGENERATE
        assert out.endswith("degenerate_ground_state true\n")
        if command == "measure":
            assert out == "degenerate_ground_state true\n"
        else:
            assert "ground_energy -12\n" in out


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

    @pytest.mark.parametrize("size, plaquette, err", [
        ("5x2", "0 6 11 5", "full-space embedding needs 2**27 amplitudes; "
         "the full-space routes are limited to 26 links"),
        ("4x3", "0 5 9 4", "full-space embedding needs 2**31 amplitudes; "
         "the full-space routes are limited to 26 links"),
        # too large for the dense eigensolve too: that refusal comes first
        ("5x3", "0 6 11 5", "sector dimension 32768 exceeds the "
         "dense-matrix limit 4096"),
    ], ids=["rect5x2", "rect4x3", "rect5x3"])
    def test_embedding_cap_refused_before_eigensolve(
            self, capsys, monkeypatch, tmp_path, size, plaquette, err):
        # sweep's pinned state is a full-space vector; above 26 links it is
        # refused before the eigensolve, with the refusal it always gave
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh ran before the refusal")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        # plaquette 0 (bottom, right, top, left), then a band that cuts
        # its side links
        _, right, _, left = plaquette.split()
        prog = tmp_path / "one.prog"
        prog.write_text(f"SPATIAL {plaquette}\nTEMPORAL 0.5 {left} {right}\n")
        code, out, stderr = run_main(capsys, "sweep", "--lattice",
                                     f"rect:{size}", "--program", str(prog),
                                     "--nt", "8,16,32")
        assert (code, out, stderr) == (EXIT_CONFIG, "", f"error: {err}\n")

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

    def test_rows_past_one_within_their_bound(self, capsys, tmp_path):
        # at n_T=12000 both fidelities round to just above 1, well inside
        # the bound the rows' own unitarity errors give
        out_path = tmp_path / "r.csv"
        code, _, err = run_main(capsys, "sweep", "--nt", "8,16,12000",
                                "--out", str(out_path))
        assert code == EXIT_OK, err
        row = next(l for l in out_path.read_text().splitlines()
                   if l.startswith("12000,"))
        assert all(1 < float(f) < 1 + 1e-10 for f in row.split(",")[1:])

    def test_rect4x2_pinned_state_holds_one_vector(self, capsys, tmp_path):
        # one plaquette of rect:4x2 (22 links): the pinned state's
        # full-space round trip at 2**22 amplitudes, as CI's r42 run
        import tracemalloc

        from z2wilson.gauge import build_physical_sector, ground_state
        from z2wilson.trotter import report_to_csv, sweep

        prog_path = tmp_path / "r42.prog"
        prog_path.write_text("SPATIAL 1 6 10 5\nTEMPORAL 0.5 5 6\n")
        out_path = tmp_path / "r42.csv"
        run_main(capsys, "sweep", "--nt", "2",
                 "--out", str(tmp_path / "warm.csv"))        # warm-up
        tracemalloc.start()
        try:
            code, _, err = run_main(capsys, "sweep", "--lattice", "rect:4x2",
                                    "--program", str(prog_path), "--nt", "8",
                                    "--out", str(out_path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK, err
        vector = 16 << 22                            # 64 MB
        assert peak <= vector + 8 * 2**20

        model = Z2Model(build_rect(4, 2), 10.0)
        sec = build_physical_sector(model)
        coords = project_to_sector(sec, ground_state(model, sec)[1])
        body = report_to_csv(sweep(model, program_from_text(
            prog_path.read_text()), coords, [8], sec))
        text = out_path.read_text()
        start = text.index("n_T,op_fidelity,gs_fidelity\n")
        assert text[start:start + len(body)] == body
        assert text[start + len(body):].startswith("# min_n_T_at_threshold")

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

        real = wilson_mod.run_blocks
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(wilson_mod, "run_blocks", counting)
        code, out, _ = run_main(capsys, "measure", "--nt", "2", "--shots",
                                "200", "--seed", "5")
        assert code == EXIT_OK
        assert len(calls) == 1
        # the sampled value of the two-run implementation, bit for bit
        assert "p_plus_sampled 0.46999999999999997\n" in out
        # the block route's digits, bit for bit, on the Lanczos ground
        # state: the box V-chains run as their exact operator and return
        # the box ancilla with an exactly zero other half, so its resets
        # neither clear nor rescale, and p_plus_exact sits 7.8e-16 from
        # p_plus_oracle 0.42808965237385721
        assert "p_plus_exact 0.42808965237385643\n" in out
        assert "re_wilson_loop -0.14382069525228713\n" in out
        assert "p_plus_oracle 0.42808965237385721\n" in out

    def test_above_26_links_within_ulps_per_gate_of_oracle(self, capsys,
                                                           tmp_path):
        # rect:9x1 has 28 links: no full-space state, only sector blocks
        prog = tmp_path / "r91.prog"
        prog.write_text("SPATIAL 3 13 22 12\nTEMPORAL 0.5 12 13\n")
        code, out, _ = run_main(capsys, "measure", "--lattice", "rect:9x1",
                                "--program", str(prog), "--nt", "2")
        assert code == EXIT_OK
        vals = measured(out)
        model = Z2Model(build_rect(9, 1), 10.0)
        circuit, _ = hadamard_test_circuit(
            model, program_from_text(prog.read_text()), 2)
        tol = ULP_PER_GATE * len(circuit.gates)
        assert abs(vals["p_plus_exact"] - vals["p_plus_oracle"]) <= tol

    def test_refuses_a_sector_above_the_lanczos_limit(self, capsys,
                                                      tmp_path):
        # rect:5x4: sector dimension 2**20, whose Krylov basis would take
        # 4 GiB; rect:5x3 (2**15), above the old dense limit, now solves
        prog = tmp_path / "id.prog"
        prog.write_text("# empty program\n")
        code, out, err = run_main(capsys, "measure", "--lattice", "rect:5x4",
                                  "--program", str(prog), "--nt", "1")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("error: sector dimension 1048576 exceeds the "
                              "Lanczos limit")

    def test_rect4x3_builds_no_dense_operator(self, capsys, monkeypatch,
                                              tmp_path):
        # dim 4096: the oracle lines come from W psi and W_nT psi, the
        # ground state from the matrix-free Lanczos solve
        import z2wilson.gauge as gauge_mod
        import z2wilson.trotter as trotter_mod

        def refuse(*args, **kwargs):
            raise AssertionError("a dense sector operator was built")

        for module, name in [(gauge_mod, "hamiltonian_in_sector"),
                             (trotter_mod, "exact_loop_operator"),
                             (trotter_mod, "trotterized_loop_operator")]:
            monkeypatch.setattr(module, name, refuse)
        prog = tmp_path / "r42.prog"
        prog.write_text("SPATIAL 1 6 10 5\nTEMPORAL 0.5 5 6\n")
        code, out, _ = run_main(capsys, "measure", "--lattice", "rect:4x3",
                                "--program", str(prog), "--nt", "9")
        assert code == EXIT_OK
        vals = measured(out)
        circuit, _ = hadamard_test_circuit(
            Z2Model(build_rect(4, 3), 10.0),
            program_from_text(prog.read_text()), 9)
        tol = ULP_PER_GATE * len(circuit.gates)
        assert abs(vals["p_plus_exact"] - vals["p_plus_oracle"]) <= tol
        assert -1 <= vals["re_wilson_loop_exact"] <= 1

    def test_too_many_substeps_refused_before_the_solve(self, capsys,
                                                       no_eigh, tmp_path):
        # rect:4x3 at lambda 10: tau * spectral_bound = 151000 needs 1180
        # Krylov substeps, above the 1024 limit
        prog = tmp_path / "long.prog"
        prog.write_text("SPATIAL 1 6 10 5\nTEMPORAL 1000 5 6\n")
        code, out, err = run_main(capsys, "measure", "--lattice", "rect:4x3",
                                  "--program", str(prog), "--nt", "1")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == ("error: evolution phase |tau| * spectral_bound = "
                       "151000 needs 1180 Krylov substeps in a sector of "
                       "dimension 4096; the limit is 1024\n")

    def test_unconverged_exponential_exit_4_before_output(self, capsys,
                                                          monkeypatch):
        import z2wilson.trotter as trotter_mod
        from z2wilson.gauge import ConvergenceError

        def unconverged(*args, **kwargs):
            raise ConvergenceError("Krylov exponential not converged")

        monkeypatch.setattr(trotter_mod, "evolve_vector", unconverged)
        code, out, err = run_main(capsys, "measure", "--nt", "2")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == ("numerical failure: Krylov exponential not "
                       "converged\n")

    @pytest.mark.parametrize("command", ["sweep", "measure", "export-circuit"])
    def test_refuses_an_invalid_program_before_output(self, capsys, tmp_path,
                                                      command):
        prog = tmp_path / "bad.prog"
        out_path = tmp_path / "out"
        out_args = [] if command == "measure" else ["--out", str(out_path)]
        for text, message in [
                ("SPATIAL 0\nTEMPORAL 1.0 0\n",
                 "spatial traversals do not close"),
                ("SPATIAL 40 41\n", "step 0: links [40, 41] not on lattice")]:
            prog.write_text(text)
            code, out, err = run_main(capsys, command, "--program", str(prog),
                                      "--nt", "1", *out_args)
            assert code == EXIT_CONFIG
            assert out == ""
            assert not out_path.exists()
            assert err.startswith(f"error: {message}")
            assert err.count("error: ") == 1
        # the builtin holds the cross's link numbers: off the cross the
        # refusal says so and asks for a program file
        for lattice in ("rect:2x2", "rect:3x3"):
            code, out, err = run_main(capsys, command, "--lattice", lattice,
                                      "--nt", "1", *out_args)
            assert code == EXIT_CONFIG
            assert out == ""
            assert not out_path.exists()
            assert err.startswith("error: builtin program 'staircase-default'"
                                  " holds the cross's link numbers")
            assert "--program FILE" in err
            assert err.count("error: ") == 1

    def test_negative_shots_refused_before_output(self, capsys):
        code, out, err = run_main(capsys, "measure", "--nt", "2", "--shots",
                                  "-5")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "error: shots must be >= 0, got -5\n"

    def test_shots_above_int64_refused_before_output(self, capsys):
        # the binomial draw takes an int64 shot count; a larger one used to
        # fail with a traceback after the exact lines were printed
        code, out, err = run_main(capsys, "measure", "--nt", "2", "--shots",
                                  "100000000000000000000")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("error: shots must be <= 2**63 - 1, "
                       "got 100000000000000000000\n")
        code, out, _ = run_main(capsys, "measure", "--nt", "2", "--shots",
                                str(2**63 - 1), "--seed", "5")
        assert code == EXIT_OK
        assert "p_plus_sampled 0.42808965251222797\n" in out

    def test_negative_seed_refused_before_output(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        for args in (["--seed", "-1"], ["--config", str(cfg)]):
            code, out, err = run_main(capsys, "measure", "--nt", "2",
                                      "--shots", "5", *args)
            assert code == EXIT_CONFIG
            assert out == ""
            assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_refused_before_output(self, capsys,
                                                        tmp_path, threshold):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"threshold={threshold}\n")
        out_path = tmp_path / "out.csv"
        for args in ([f"--threshold={threshold}"], ["--config", str(cfg)]):
            code, out, err = run_main(capsys, "sweep", "--nt", "2,4,8",
                                      "--out", str(out_path), *args)
            assert code == EXIT_CONFIG
            assert out == ""
            assert not out_path.exists()
            assert err == ("error: threshold must be finite, "
                           f"got {float(threshold)}\n")

    @pytest.mark.parametrize(
        "command", ["validate", "sweep", "measure", "export-circuit"])
    def test_overflowing_phases_refused_before_output(self, capsys, tmp_path,
                                                      command):
        # finite inputs whose |tau| * (n_links + |lambda| * n_plaq) is inf
        prog = tmp_path / "tau.prog"
        out_path = tmp_path / "out"
        phases = "phases must be finite, got |tau| * (n_links + |lambda| * "
        cases = [
            (["--tau", "1e308"],
             "temporal step " + phases + "n_plaq) = inf at tau=1e+308, "
             "lambda=10.0"),
            (["--program", str(prog)],
             "free evolution " + phases + "n_plaq) = inf at tau=-1e+307, "
             "lambda=10.0"),
            (["--lambda", "1e308"],
             "energies must be finite, got n_links + |lambda| * n_plaq = inf "
             "at lambda=1e+308"),
        ]
        prog.write_text("EVOLVE -1e307\n")
        writes = command in ("sweep", "export-circuit")
        out_args = ["--out", str(out_path)] if writes else []
        for args, message in cases:
            nt = [] if command == "validate" else ["--nt", "1"]
            code, out, err = run_main(capsys, command, *nt, *out_args, *args)
            assert code == EXIT_CONFIG
            assert out == ""
            assert not out_path.exists()
            assert err == f"error: {message}\n"
        # the largest finite phases still run
        code, out, _ = run_main(capsys, command, *nt, "--tau", "1e306")
        assert code == EXIT_OK and "nan" not in out

    def test_overflowing_energies_refused_by_ground_state(self, capsys):
        code, out, err = run_main(capsys, "ground-state", "--lambda=-1e308")
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("error: energies must be finite, got n_links + "
                       "|lambda| * n_plaq = inf at lambda=-1e+308\n")

    @pytest.mark.parametrize(
        "command", ["validate", "sweep", "measure", "export-circuit"])
    @pytest.mark.parametrize("tau", ["inf", "nan"])
    def test_non_finite_tau_refused_before_output(self, capsys, tmp_path,
                                                  command, tau):
        # from --tau through the builtin and from a program file alike
        prog = tmp_path / "tau.prog"
        prog.write_text(f"TEMPORAL {tau} 1 2\n")
        out_path = tmp_path / "out"
        writes = command in ("sweep", "export-circuit")
        out_args = ["--out", str(out_path)] if writes else []
        for args in (["--tau", tau], ["--program", str(prog)]):
            nt = [] if command == "validate" else ["--nt", "2"]
            code, out, err = run_main(capsys, command, *nt, *out_args, *args)
            assert code == EXIT_CONFIG
            assert out == ""
            assert not out_path.exists()
            assert err == ("error: temporal step tau must be finite, "
                           f"got {tau}\n")

    def test_nt_list_refused_before_output(self, capsys, tmp_path):
        # measure runs one n_T: a list is refused, not cut to its first value
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nt=2,4\n")
        for args in (["--nt", "2,4"], ["--config", str(cfg)]):
            code, out, err = run_main(capsys, "measure", *args)
            assert code == EXIT_CONFIG
            assert out == ""
            assert err == ("error: measure runs one n_T, got nt=2,4; "
                           "give a single value\n")

    def test_no_nt_runs_the_first_default(self, capsys):
        code, default, _ = run_main(capsys, "measure")
        assert code == EXIT_OK
        assert default.startswith("n_T 8\n")
        assert run_main(capsys, "measure", "--nt", "8")[1] == default

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
    return _bit_probability(final.amps, final.n_qubits, control, 0)


def block_p_plus(circuit, control, model, sector, coords):
    final, _ = run_blocks(circuit, model, sector, coords)
    return block_bit_probability(final, circuit, control, 0)


def sector_p_plus(model, sector, coords, program, n_T):
    w = trotterized_loop_operator(model, sector, program, n_T)
    return (2 + 2 * np.real(np.vdot(coords, w @ coords))) / 4


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
        """(oracle p_plus, tolerance, gate circuit, control, executors) at
        n_T=2; ``executors`` maps each executor to p_plus(circuit, control)
        on the ground state."""
        _, gs = cross_ground
        coords = project_to_sector(cross_sector, gs.amps)
        executors = {
            "full-space": lambda c, q: circuit_p_plus(c, q, gs),
            "blocks": lambda c, q: block_p_plus(c, q, cross_model,
                                                cross_sector, coords),
        }
        circuit, control = hadamard_test_circuit(cross_model,
                                                 staircase_default(), 2)
        oracle = sector_p_plus(cross_model, cross_sector, coords,
                               staircase_default(), 2)
        tol = ULP_PER_GATE * len(circuit.gates)
        for p_plus in executors.values():
            assert abs(p_plus(circuit, control) - oracle) <= tol
        return oracle, tol, circuit, control, executors

    def assert_missed(self, contract, mutant):
        oracle, tol, _, control, executors = contract
        for p_plus in executors.values():
            assert abs(p_plus(mutant, control) - oracle) >= (
                MUTATION_MARGIN * tol)

    def test_mutation_v_gate_sign_flipped(self, contract):
        circuit = contract[2]
        gates = list(circuit.gates)
        i = next(k for k, g in enumerate(gates)
                 if isinstance(g, ControlledPauliExp) and g.basis == "x-")
        gates[i] = dataclasses.replace(gates[i], theta=-gates[i].theta)
        self.assert_missed(contract, dataclasses.replace(circuit, gates=gates))

    def test_mutation_box_dropped(self, contract):
        circuit = contract[2]
        gates = list(circuit.gates)
        i = next(k for k, g in enumerate(gates)
                 if isinstance(g, ControlledPauliExp) and g.basis == "x-")
        # V-chain, controlled ancilla Z, reversed V-chain
        box = gates[i: i + 9]
        assert [g.basis for g in box] == ["x-"] * 4 + ["z"] + ["x-"] * 4
        self.assert_missed(contract, dataclasses.replace(
            circuit, gates=gates[:i] + gates[i + 9:]))

    def test_mutation_wrong_modified_link(self, contract, cross_model):
        steps = list(staircase_default().steps)
        bottom = cross_model.lattice.plaquettes[0]
        # the band cuts the plaquette's left and top links, not left and right
        steps[1] = Temporal(steps[1].tau, {bottom[3], bottom[2]})
        mutant, _ = hadamard_test_circuit(cross_model, LoopProgram(steps), 2)
        self.assert_missed(contract, mutant)

    def test_mutation_n_T_off_by_one(self, contract, cross_model):
        mutant, _ = hadamard_test_circuit(cross_model, staircase_default(), 3)
        self.assert_missed(contract, mutant)


class TestNumericalFailure:
    def test_exit_4_on_unitarity_drift(self, capsys, monkeypatch, tmp_path):
        import z2wilson.trotter as trotter_mod

        real = trotter_mod.trotterized_loop_operator

        def drifting(model, sector, program, n_T):
            w = real(model, sector, program, n_T)
            return w * 1.001   # breaks unitarity

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

    @pytest.mark.parametrize("kind", ["plaquette-loop", "link-loop"])
    def test_loop_kinds_build_no_model(self, capsys, tmp_path, kind):
        # the loop kinds never read lambda, so a config file's nan is no
        # error there; the program kind still refuses it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lam=nan\n")
        code, out, err = run_main(capsys, "export-circuit", "--kind", kind,
                                  "--lattice", "rect:2x2", "--config",
                                  str(cfg))
        assert (code, err) == (EXIT_OK, "")
        assert "# census" in out
        code, out, err = run_main(capsys, "export-circuit", "--nt", "2",
                                  "--config", str(cfg))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: coupling must be finite, got nan\n"

    @pytest.mark.parametrize("kind", ["plaquette-loop", "link-loop"])
    def test_loop_kinds_refuse_bad_lattices(self, capsys, kind):
        for lattice, message in (
                ("rect:2y2", "bad rect spec 'rect:2y2'; use rect:WxH"),
                ("rect:0x2", "width and height must be >= 1, got 0x2")):
            code, out, err = run_main(capsys, "export-circuit", "--kind",
                                      kind, "--lattice", lattice)
            assert code == EXIT_CONFIG
            assert out == ""
            assert err == f"error: {message}\n"

    def test_link_loop_needs_one_boundary_cycle(self, capsys, tmp_path):
        # two cells meeting at a corner: their boundary is no simple cycle
        # to walk, while the plaquette product still exists
        path = tmp_path / "corner.lat"
        path.write_text(lattice_to_text(
            _build_from_cells([(0, 0), (1, 1)])))
        code, out, err = run_main(capsys, "export-circuit", "--kind",
                                  "link-loop", "--lattice", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: the lattice boundary is not one simple cycle\n"
        code, out, err = run_main(capsys, "export-circuit", "--kind",
                                  "plaquette-loop", "--lattice", str(path))
        assert (code, err) == (EXIT_OK, "")
        assert "# census" in out

    @pytest.mark.parametrize("kind", ["plaquette-loop", "link-loop"])
    def test_loop_kinds_export_the_cross(self, capsys, kind):
        code, out, err = run_main(capsys, "export-circuit", "--kind", kind,
                                  "--lattice", "cross")
        assert (code, err) == (EXIT_OK, "")
        assert "# census" in out

    def test_bad_kind(self, capsys):
        code, _, err = run_main(capsys, "export-circuit", "--kind", "magic")
        assert code == EXIT_CONFIG

    def test_nt_list_refused_before_output(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nt=2,4\n")
        out_path = tmp_path / "c.qc"
        for args in (["--nt", "2,4"], ["--config", str(cfg)]):
            code, out, err = run_main(capsys, "export-circuit", *args,
                                      "--out", str(out_path))
            assert code == EXIT_CONFIG
            assert out == ""
            assert not out_path.exists()
            assert err == ("error: export-circuit runs one n_T, got nt=2,4; "
                           "give a single value\n")

    # SHA-256 of each export's body (the lines after the provenance
    # header): any change to a builder's gate order, angles or strings, or
    # to the text format, shows here
    GOLDEN_BODIES = [
        (["--nt", "2"],
         "9da0fd176785accc3e0531e7e7df5c95313837f48fe6aefc29783567e18f914d"),
        (["--kind", "plaquette-loop", "--lattice", "rect:3x3"],
         "ae2ff77f7794d1ee37e3caec38f8efd0ff44220f4bd295bd08d72cfe36203a0f"),
        (["--kind", "link-loop", "--lattice", "rect:3x2"],
         "639dd488605b77cadba1312e7123f44aae8ede80b8161987c8c49cfd9ff95460"),
    ]

    @pytest.mark.parametrize("args,digest", GOLDEN_BODIES)
    def test_body_matches_golden_digest(self, capsys, tmp_path, args, digest):
        path = tmp_path / "c.qc"
        code, _, _ = run_main(capsys, "export-circuit", *args,
                              "--out", str(path))
        assert code == EXIT_OK
        lines = path.read_text().splitlines(keepends=True)
        while lines[0].startswith("#"):
            lines.pop(0)
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest

    def test_no_nt_exports_the_first_default(self, capsys):
        # the same circuit; only the config hash in the header differs
        def body(out):
            return [l for l in out.splitlines()
                    if not l.startswith("# config_hash")]
        code, default, _ = run_main(capsys, "export-circuit")
        assert code == EXIT_OK
        assert body(run_main(capsys, "export-circuit", "--nt", "8")[1]) \
            == body(default)


class TestEvolvePrograms:
    """Pinned outputs of programs with free evolutions (``EVOLVE`` records).

    One program closes every spatial frontier before it evolves freely;
    the other evolves freely with a plaquette's four links open, which
    ``validate`` notes.  Each digest is the SHA-256 of the exit code line,
    stdout, a NUL, stderr, a NUL and the ``--out`` file, recorded before
    free evolutions became ``Temporal`` steps with no modified link; the
    two ``measure`` digests were re-recorded when ``measure`` took its
    ground state from the real symmetric solver, and again when its
    ``re_wilson_loop_exact`` line came from W psi by Krylov exponentials
    (it moved by 7.0e-15 and 8.9e-15), and once more when Re psi and
    Im psi of each step began one shared Lanczos basis (it moved by
    3.5e-15 and 1.2e-16).  The
    programs sit in the working directory under fixed names, because the
    program path enters the config hash in each header.
    """

    PROGRAMS = {
        "evolve_closed.prog": ("EVOLVE 0.3\nSPATIAL 0 2 4 1\n"
                               "TEMPORAL 0.5 0 1 2 4\nSPATIAL 1 4 2 0\n"
                               "EVOLVE 0.2\n"),
        "evolve_open.prog": ("SPATIAL 4 8 11 7\nEVOLVE 0.4\n"
                             "SPATIAL 4 8 11 7\n"),
    }
    GOLDEN = [
        ("evolve_closed.prog", ["sweep", "--nt", "8,16,32", "--out"],
         "902026b6612905a019d57702df994ba7f88c3a68d60690f8e3046fc8a8e042d2"),
        ("evolve_closed.prog", ["measure", "--nt", "3", "--shots", "500",
                                "--seed", "11"],
         "9444714b46386d0c2dca02670423bd2c463ab8d772cd134c817eaf0dda70814a"),
        ("evolve_closed.prog", ["export-circuit", "--nt", "2", "--out"],
         "1f0794323cfe417294da43e2b1ff2e3b57481793a404158ef9a808362767a516"),
        ("evolve_closed.prog", ["validate"],
         "9af3811fac3cd8a4839cfcd09c0cfaefc1c6a75aa3e6f49ccafbaa93ccd155b6"),
        ("evolve_open.prog", ["sweep", "--nt", "8,16,32", "--out"],
         "a035c2216b6bdf449243bb7122dfc621833a0aadc1ba9ea2bdeb3f7b68beff3f"),
        ("evolve_open.prog", ["measure", "--nt", "3", "--shots", "500",
                              "--seed", "11"],
         "20a40983bea5d729ae370a42d49195c090b79b875604658452d833b77a6d9e60"),
        ("evolve_open.prog", ["export-circuit", "--nt", "2", "--out"],
         "423f51b11623aa51a14a7da96b56be5670aa2d86c55a1fed1789ee7359087c9d"),
        ("evolve_open.prog", ["validate"],
         "56f869c469c3476fdf18ecd9603d1c1f42366c53160c50278b9969071bbd2914"),
    ]

    @pytest.mark.parametrize("program,args,digest", GOLDEN,
                             ids=[f"{p.split('.')[0]}-{a[0]}"
                                  for p, a, _ in GOLDEN])
    def test_outputs_match_golden_digest(self, capsys, monkeypatch, tmp_path,
                                         program, args, digest):
        monkeypatch.chdir(tmp_path)
        for name, text in self.PROGRAMS.items():
            (tmp_path / name).write_text(text)
        argv = [args[0], "--program", program, *args[1:]]
        if argv[-1] == "--out":
            argv.append("result.out")
        code, out, err = run_main(capsys, *argv)
        path = tmp_path / "result.out"
        record = (f"{code}\n{out}\0{err}\0".encode()
                  + (path.read_bytes() if path.exists() else b""))
        assert hashlib.sha256(record).hexdigest() == digest

    def test_cancelling_spatial_step_emits_no_gate(self, capsys,
                                                   monkeypatch, tmp_path):
        # SPATIAL 4 4 traverses link 4 twice: sigma_3**2 = I, so every
        # route and every output is that of the program without the step
        monkeypatch.chdir(tmp_path)
        text = self.PROGRAMS["evolve_closed.prog"]
        (tmp_path / "plain.prog").write_text(text)
        (tmp_path / "cancel.prog").write_text("SPATIAL 4 4\n" + text)

        def body(name):
            path = tmp_path / f"{name}.qc"
            code, _, _ = run_main(capsys, "export-circuit", "--program",
                                  f"{name}.prog", "--nt", "2",
                                  "--out", str(path))
            assert code == EXIT_OK
            return path.read_text().splitlines()[3:]

        def measured(name):
            code, out, err = run_main(capsys, "measure", "--program",
                                      f"{name}.prog", "--nt", "3",
                                      "--shots", "500", "--seed", "11")
            assert (code, err) == (EXIT_OK, "")
            return out

        assert body("cancel") == body("plain")
        assert measured("cancel") == measured("plain")
        model = Z2Model(build_cross(), 10.0)
        plain = program_from_text(text)
        cancel = program_from_text("SPATIAL 4 4\n" + text)
        assert len(cancel.steps) == len(plain.steps) + 1
        (circ, ctrl), (circ0, ctrl0) = (hadamard_test_circuit(model, p, 3)
                                        for p in (cancel, plain))
        assert (circ.gates, circ.global_phase, ctrl) == \
            (circ0.gates, circ0.global_phase, ctrl0)
        sector = build_physical_sector(model)
        assert np.array_equal(
            trotterized_loop_operator(model, sector, cancel, 3),
            trotterized_loop_operator(model, sector, plain, 3))

    def test_validate_notes_the_open_frontier(self, capsys, monkeypatch,
                                              tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.prog").write_text(self.PROGRAMS["evolve_open.prog"])
        code, out, err = run_main(capsys, "validate", "--program", "p.prog")
        assert (code, err) == (EXIT_OK, "")
        assert out == ("program: note: step 1: free evolution with open "
                       "spatial frontier [4, 7, 8, 11]\nok\n")


class TestUnreadFlags:
    """A command-line flag the command (or export kind) does not read is
    refused before any output; a config file may hold any key."""

    @pytest.mark.parametrize("argv, message", [
        (["ground-state", "--nt", "2,4"], "ground-state does not read --nt"),
        (["ground-state", "--kind", "link-loop"],
         "ground-state does not read --kind"),
        (["export-circuit", "--kind", "link-loop", "--lattice", "rect:2x2",
          "--lambda", "3", "--tau", "2"],
         "export-circuit --kind link-loop does not read --lambda, --tau"),
        (["measure", "--threshold", "0.5"],
         "measure does not read --out, --threshold"),
        (["sweep", "--shots", "5"], "sweep does not read --shots"),
        (["validate", "--nt", "3,4"], "validate does not read --nt, --out"),
    ], ids=["ground-nt", "ground-kind", "link-loop-lambda-tau",
            "measure-threshold", "sweep-shots", "validate-nt"])
    def test_refused_before_output(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "out"
        code, out, err = run_main(capsys, *argv, "--out", str(out_path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert not out_path.exists()
        assert err == f"error: {message}\n"

    def test_config_file_keys_accepted(self, capsys, tmp_path):
        # one file may serve several commands
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nt=2,4\nshots=5\nthreshold=0.5\nkind=link-loop\n")
        code, out, _ = run_main(capsys, "ground-state", "--lattice",
                                "rect:2x2", "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run_main(capsys, "ground-state", "--lattice",
                               "rect:2x2")[1]

    @pytest.mark.parametrize("argv", [
        ["ground-state", "--lattice", "rect:2x2"],
        ["sweep", "--nt", "4,8,16"],
        ["export-circuit", "--nt", "2"],
        ["export-circuit", "--kind", "plaquette-loop", "--lattice",
         "rect:2x2"],
        ["export-circuit", "--kind", "link-loop", "--lattice", "rect:2x2"],
    ], ids=["ground-state", "sweep", "program", "plaquette-loop", "link-loop"])
    def test_seed_and_out_read_where_written(self, capsys, tmp_path, argv):
        # each writing command writes --out, headed by --seed
        out_path = tmp_path / "out"
        code, _, _ = run_main(capsys, *argv, "--seed", "3",
                              "--out", str(out_path))
        assert code == EXIT_OK
        assert out_path.read_text().splitlines()[2] == "# seed 3 rng philox"

    @pytest.mark.parametrize("argv, message", [
        (["measure", "--nt", "2", "--out"], "measure does not read --out"),
        (["validate", "--out"], "validate does not read --out"),
        (["validate", "--seed", "3"], "validate does not read --seed"),
    ], ids=["measure-out", "validate-out", "validate-seed"])
    def test_seed_and_out_refused_where_unread(self, capsys, no_eigh,
                                               tmp_path, argv, message):
        # measure and validate write no file: --out would name none
        if argv[-1] == "--out":
            argv = [*argv, str(tmp_path / "out")]
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "measure", "export-circuit",
                                         "validate"])
    def test_tau_refused_beside_a_program_file(self, capsys, no_eigh,
                                               tmp_path, command):
        # --tau sets the builtins' step time; a program file's steps carry
        # their own, so beside one it would change nothing
        prog = tmp_path / "chain.prog"
        prog.write_text("SPATIAL 4 8\nTEMPORAL 0.7 4 8\nSPATIAL 8 4\n")
        out_path = tmp_path / "out"
        args = {"sweep": ["--nt", "8,16", "--out", str(out_path)],
                "measure": ["--nt", "2"],
                "export-circuit": ["--nt", "2", "--out", str(out_path)],
                "validate": []}[command]
        code, out, err = run_main(capsys, command, "--program", str(prog),
                                  "--tau", "0.3", *args)
        assert (code, out) == (EXIT_CONFIG, "")
        key = command + (" --kind program" if command == "export-circuit"
                         else "")
        assert err == (f"error: {key} reads --tau only for a builtin "
                       f"program, not {str(prog)!r}\n")
        assert not out_path.exists()

    def test_config_file_tau_beside_a_program_file(self, capsys, tmp_path):
        # a config file may serve the builtins too, so its tau is accepted
        prog = tmp_path / "chain.prog"
        prog.write_text("SPATIAL 4 8\nTEMPORAL 0.7 4 8\nSPATIAL 8 4\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau=0.3\n")
        argv = ["measure", "--program", str(prog), "--nt", "2"]
        code, out, _ = run_main(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_OK
        assert out == run_main(capsys, *argv)[1]


class TestInputRefusals:
    """A bad value, a missing or malformed input and an input path that
    names a directory are each refused with one error line, before any
    output or eigensolve."""

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--nt", "0"], "n_T values must be >= 1"),
        (["sweep", "--nt", ","], "empty n_T list"),
        (["sweep", "--lambda", "abc"], "bad float for lam: 'abc'"),
        (["measure", "--shots", "x"], "bad integer for shots: 'x'"),
        (["sweep", "--program", "nosuch"],
         "program 'nosuch' is neither a builtin (staircase-default) nor a "
         "file"),
        (["validate", "--config", "missing.cfg"],
         "config file 'missing.cfg' does not exist"),
        (["sweep", "--config", "garbage.cfg"], "bad config line 'garbage'"),
    ], ids=["nt-zero", "nt-empty", "bad-float", "bad-integer",
            "no-such-program", "missing-config", "bad-config-line"])
    def test_refused_before_output(self, capsys, monkeypatch, no_eigh,
                                   tmp_path, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "garbage.cfg").write_text("garbage\n")
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, what", [
        (["validate", "--lattice"], "lattice file"),
        (["validate", "--program"], "program file"),
        (["validate", "--config"], "config file"),
        (["sweep", "--nt", "8,16,32", "--program"], "program file"),
    ], ids=["validate-lattice", "validate-program", "validate-config",
            "sweep-program"])
    def test_directory_input_refused(self, capsys, no_eigh, tmp_path, argv,
                                     what):
        code, out, err = run_main(capsys, *argv, str(tmp_path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"error: cannot read {what} {str(tmp_path)!r}: "
                       f"{os.strerror(errno.EISDIR)}\n")


    SQUARE = ("LINK 0 0 1\nLINK 1 1 2\nLINK 2 2 3\nLINK 3 3 0\n")

    @pytest.mark.parametrize("name, text, argv, stdout, stderr", [
        ("foo.lat", "LATTICE v=4 e=4 p=1\n" + SQUARE + "PLAQ 0 0 1 2 3\n"
         "FOO 1\n", ["sweep", "--lattice"], "",
         "error: lattice file {path!r}: unknown lattice record 'FOO'\n"),
        ("links.lat", "LATTICE v=4 e=5 p=1\n" + SQUARE + "PLAQ 0 0 1 2 3\n",
         ["sweep", "--lattice"], "",
         "error: lattice file {path!r}: LINK records do not match header "
         "count\n"),
        ("plaqs.lat", "LATTICE v=4 e=4 p=2\n" + SQUARE + "PLAQ 0 0 1 2 3\n",
         ["sweep", "--lattice"], "",
         "error: lattice file {path!r}: PLAQ records do not match header "
         "count\n"),
        ("range.lat", "LATTICE v=4 e=4 p=1\n" + SQUARE + "PLAQ 0 0 1 2 9\n",
         ["sweep", "--lattice"], "",
         "error: lattice file {path!r} invalid: plaquette 0: link index out "
         "of range in (0, 1, 2, 9)\n"),
        ("off.prog", "SPATIAL 4 8 11 7\nTEMPORAL 0.5 99\nSPATIAL 4 8 11 7\n",
         ["validate", "--program"],
         "program: error: step 1: modified links [99] not on lattice\n", ""),
        ("off.prog", "SPATIAL 4 8 11 7\nTEMPORAL 0.5 99\nSPATIAL 4 8 11 7\n",
         ["sweep", "--nt", "8,16,32", "--program"], "",
         "error: step 1: modified links [99] not on lattice\n"),
        # links 4, 8 and 5 all meet at vertex 4: refused before n_T prints
        ("t.prog", "SPATIAL 4 8 5\nTEMPORAL 0.5 4 8\nSPATIAL 7 11\n"
         "SPATIAL 5\n", ["measure", "--nt", "2", "--program"], "",
         "error: step 0: spatial links are not a contiguous chain\n"),
    ], ids=["unknown-record", "link-count", "plaquette-count",
            "plaquette-link-range", "validate-program-links",
            "sweep-program-links", "measure-program-t-junction"])
    def test_bad_input_file_refused(self, capsys, no_eigh, tmp_path, name,
                                    text, argv, stdout, stderr):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run_main(capsys, *argv, str(path))
        assert (code, out) == (EXIT_CONFIG, stdout)
        assert err == stderr.format(path=str(path))


class TestOutPath:
    """An --out path that lies in a missing directory, or names a
    directory, is refused before any output or work."""

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    @pytest.mark.parametrize("argv", [
        ["ground-state", "--lattice", "rect:2x2"],
        ["sweep", "--nt", "8,16,32"],
        ["export-circuit", "--nt", "2"],
    ], ids=lambda argv: argv[0])
    def test_refused_before_output(self, capsys, monkeypatch, tmp_path,
                                   argv, where):
        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh ran before the refusal")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        path = tmp_path / "d" / "out" if where == "missing-dir" else tmp_path
        code, out, err = run_main(capsys, *argv, "--out", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"error: cannot write --out {str(path)!r}: not a "
                       "file in an existing directory\n")
        assert list(tmp_path.iterdir()) == []


class TestClosedPipe:
    SRC = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")

    @pytest.mark.parametrize("argv, unbuffered", [
        (["measure", "--nt", "2"], "1"),   # a print inside the command
        (["validate"], ""),                # the flush at the end
    ])
    def test_exits_quietly(self, argv, unbuffered):
        # the reader is gone before the first byte is written
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=self.SRC,
                   PYTHONUNBUFFERED=unbuffered)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "z2wilson.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == EXIT_BROKEN_PIPE


class TestValidateCommand:
    @pytest.mark.parametrize("option, value", [
        ("--tau", "-1e-3"), ("--lambda", "-1e308"), ("--threshold", "-inf")])
    def test_negative_value_in_either_form(self, capsys, option, value):
        # argparse alone takes "-1e-3" for an option, not for a value
        spaced = run_main(capsys, "validate", option, value)
        joined = run_main(capsys, "validate", f"{option}={value}")
        assert spaced == joined
        assert "expected one argument" not in spaced[2]

    def test_ok(self, capsys):
        code, out, _ = run_main(capsys, "validate", "--lattice", "rect:2x2")
        assert code == EXIT_OK
        assert "ok" in out

    def test_bad_lattice_file(self, capsys, tmp_path):
        path = tmp_path / "bad.lat"
        path.write_text("LATTICE v=2 e=1 p=0\nLINK 0 0 0\n")
        code, out, err = run_main(capsys, "validate", "--lattice", str(path))
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("error: lattice file")
        assert err.count("\n") == 1 and err.count("error:") == 1

    @pytest.mark.parametrize("text, record", [
        ("LATTICE v=2 e=1 p=0\nLINK 0 1\n", "LINK record 'LINK 0 1'"),
        ("LATTICE v=4 e=4 p=1\nLINK 0 0 1\nLINK 1 1 2\nLINK 2 2 3\n"
         "LINK 3 3 0\nPLAQ 0 0 1 2\n", "PLAQ record 'PLAQ 0 0 1 2'"),
        ("LATTICE e=1 p=0\nLINK 0 0 1\n", "lacks v="),
        ("LATTICE v2 e=1 p=0\nLINK 0 0 1\n", "lacks v="),
        ("LATTICE v=2 p=0\nLINK 0 0 1\n", "lacks e="),
        ("LATTICE v=2 e=1\nLINK 0 0 1\n", "lacks p=")])
    def test_malformed_lattice_file(self, capsys, tmp_path, text, record):
        # refused with the record named, not a traceback
        path = tmp_path / "bad.lat"
        path.write_text(text)
        for command in ("validate", "sweep"):
            code, out, err = run_main(capsys, command, "--lattice", str(path))
            assert code == EXIT_CONFIG
            assert out == ""
            assert err.startswith("error: lattice file") and record in err
            assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["validate"], ["ground-state"], ["sweep", "--nt", "8,16,32"],
        ["measure", "--nt", "2"],
        ["export-circuit", "--kind", "plaquette-loop"]],
        ids=lambda argv: argv[-1] if argv[0] == "export-circuit" else argv[0])
    def test_disconnected_lattice_file(self, capsys, no_eigh, tmp_path,
                                       argv):
        # two unit squares that share no vertex: every command refuses the
        # file up front, not the sector layer further in
        path = tmp_path / "two.lat"
        path.write_text(lattice_to_text(_build_from_cells([(0, 0), (2, 0)])))
        code, out, err = run_main(capsys, *argv, "--lattice", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"error: lattice file {str(path)!r} invalid: vertices "
                       "[2, 3, 6, 7] are not connected to vertex 0\n")

    @pytest.mark.parametrize("argv", [
        ["validate"], ["ground-state", "--out"],
        ["export-circuit", "--kind", "plaquette-loop", "--out"]],
        ids=lambda argv: argv[2] if argv[0] == "export-circuit" else argv[0])
    def test_plaquette_not_a_closed_walk(self, capsys, no_eigh, tmp_path,
                                         argv):
        # rect:2x1 plus a second link 7 beside link 3: plaquette 2's links
        # meet cyclically and touch four vertices, but walk no cycle
        lat = build_rect(2, 1)
        path = tmp_path / "t.lat"
        path.write_text(lattice_to_text(Lattice(
            lat.n_vertices, lat.links + ((1, 4),),
            lat.plaquettes + ((0, 3, 1, 7),))))
        out_path = tmp_path / "out.txt"
        if argv[-1] == "--out":
            argv = [*argv, str(out_path)]
        code, out, err = run_main(capsys, *argv, "--lattice", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"error: lattice file {str(path)!r} invalid: "
                       "plaquette 2: links (0, 3, 1, 7) do not form a "
                       "4-cycle\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("n_vertices", [0, -3])
    def test_lattice_file_without_vertices(self, capsys, tmp_path,
                                           n_vertices):
        # both commands refuse it with the lattice diagnostic, not a
        # sector error further in
        path = tmp_path / "empty.lat"
        path.write_text(f"LATTICE v={n_vertices} e=0 p=0\n")
        for command in ("validate", "ground-state"):
            code, out, err = run_main(capsys, command, "--lattice", str(path))
            assert code == EXIT_CONFIG
            assert out == ""
            assert err == (f"error: lattice file {str(path)!r} invalid: "
                           f"{n_vertices} vertices: a lattice needs at "
                           "least one\n")

    @pytest.mark.parametrize("lattice", ["rect:2x2", "rect:3x3"])
    def test_builtin_program_off_the_cross(self, capsys, lattice):
        code, out, err = run_main(capsys, "validate", "--lattice", lattice,
                                  "--program", "staircase-default")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "holds the cross's link numbers" in err
        assert "--program FILE" in err
        assert err.count("\n") == 1 and err.count("error:") == 1

    def test_builtin_program_on_the_cross(self, capsys):
        code, out, err = run_main(capsys, "validate", "--program",
                                  "staircase-default")
        assert code == EXIT_OK
        assert out.endswith("ok\n") and "error" not in out
        assert err == ""

    def test_program_checked_when_given(self, capsys, tmp_path):
        prog = tmp_path / "bad.prog"
        prog.write_text("SPATIAL 0\n")
        code, out, _ = run_main(capsys, "validate", "--lattice", "rect:1x1",
                                "--program", str(prog))
        assert code == EXIT_CONFIG
        assert "not gauge invariant" in out
