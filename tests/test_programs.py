"""Loop programs: step types, validation rules, text format, the builtin."""

import random

import pytest

from z2wilson.lattice import build_cross, build_rect
from z2wilson.programs import (LoopProgram, ProgramError, Spatial, Temporal,
                               _is_even_subgraph, program_from_text,
                               program_to_text, staircase_default,
                               validate_program)


class TestSteps:
    def test_temporal_freezes_inputs(self):
        t = Temporal(1.5, [3, 1, 3])
        assert t.modified_links == frozenset({1, 3})
        assert t.tau == 1.5

    @pytest.mark.parametrize("tau", [float("inf"), float("-inf"),
                                     float("nan")])
    def test_non_finite_tau_refused(self, tau):
        with pytest.raises(ProgramError, match="tau must be finite"):
            Temporal(tau, {0})
        with pytest.raises(ProgramError, match="tau must be finite"):
            Temporal(tau, ())
        with pytest.raises(ProgramError, match="tau must be finite"):
            staircase_default(tau)
        with pytest.raises(ProgramError, match="tau must be finite"):
            program_from_text(f"TEMPORAL {tau} 1 2\n")
        with pytest.raises(ProgramError, match="tau must be finite"):
            program_from_text(f"EVOLVE {tau}\n")

    def test_program_taus_and_temporal_count(self):
        prog = LoopProgram([Spatial([0]), Temporal(1.0, {0}),
                            Temporal(0.5, ())])
        assert sum(s.tau for s in prog.steps
                   if isinstance(s, Temporal)) == 1.5
        assert prog.n_temporal() == 2


class TestValidation:
    @pytest.mark.parametrize("lat", [build_cross(), build_rect(3, 2),
                                     build_rect(4, 3)],
                             ids=["cross", "rect3x2", "rect4x3"])
    def test_closure_check_equals_vertex_degrees(self, lat):
        def even_degrees(links):
            deg = [0] * lat.n_vertices
            for li in links:
                a, b = lat.links[li]
                deg[a] += 1
                deg[b] += 1
            return all(d % 2 == 0 for d in deg)

        rng = random.Random(23)
        seen = set()
        for _ in range(200):
            if rng.random() < 0.5:      # a closed cycle: XOR of plaquettes
                links = set()
                for plaq in rng.sample(lat.plaquettes, rng.randint(1, 3)):
                    links ^= set(plaq)
            else:
                links = {li for li in range(lat.n_links) if rng.random() < .5}
            assert _is_even_subgraph(lat, links) == even_degrees(links)
            seen.add(even_degrees(links))
        assert seen == {True, False}

    def test_staircase_default_has_no_errors(self):
        lat = build_cross()
        diags = validate_program(lat, staircase_default())
        assert not [d for d in diags if d.startswith("error:")]

    def test_single_plaquette_program_valid(self):
        lat = build_rect(1, 1)
        diags = validate_program(lat,
                                 LoopProgram([Spatial(lat.plaquettes[0])]))
        assert diags == []

    def test_temporal_only_program_valid(self):
        lat = build_cross()
        prog = LoopProgram([Temporal(0.5, {0}), Temporal(0.5, {0})])
        diags = validate_program(lat, prog)
        assert not [d for d in diags if d.startswith("error:")]
        # frontier mismatch is a note, not an error
        assert all(d.startswith("note:") for d in diags)

    def test_off_lattice_link_is_error(self):
        lat = build_rect(1, 1)
        diags = validate_program(lat, LoopProgram([Spatial([0, 99])]))
        assert any(d.startswith("error:") for d in diags)

    def test_non_contiguous_chain_is_error(self):
        lat = build_rect(2, 1)
        # link 0 = bottom-left horizontal, link 6 = top-right: disjoint
        diags = validate_program(lat, LoopProgram([Spatial([0, 6]),
                                                   Spatial([0, 6])]))
        assert any("contiguous" in d for d in diags)

    def test_t_junction_step_is_error(self):
        # links 4, 8 and 5 of the cross all meet at vertex 4: each pair of
        # consecutive links shares a vertex, but they are no walk
        lat = build_cross()
        prog = program_from_text("SPATIAL 4 8 5\nTEMPORAL 0.5 4 8\n"
                                 "SPATIAL 7 11\nSPATIAL 5\n")
        assert [d for d in validate_program(lat, prog)
                if d.startswith("error:")] == [
            "error: step 0: spatial links are not a contiguous chain"]
        # the same links as two walks give the same sigma_3 product
        split = LoopProgram([Spatial([4, 8]), Spatial([5]), *prog.steps[1:]])
        assert not [d for d in validate_program(lat, split)
                    if d.startswith("error:")]

    def test_unclosed_spatial_total_is_error(self):
        lat = build_rect(1, 1)
        diags = validate_program(lat, LoopProgram([Spatial([0])]))
        assert any("not gauge invariant" in d for d in diags)

    def test_frontier_matching_temporal_is_clean(self):
        lat = build_rect(1, 1)
        plaq = lat.plaquettes[0]
        prog = LoopProgram([Spatial(plaq),
                            Temporal(1.0, set(plaq)),
                            Spatial(plaq)])
        assert validate_program(lat, prog) == []

    def test_free_evolve_with_open_frontier_noted(self):
        lat = build_rect(1, 1)
        plaq = lat.plaquettes[0]
        prog = LoopProgram([Spatial(plaq), Temporal(1.0, ()), Spatial(plaq)])
        diags = validate_program(lat, prog)
        assert any(d.startswith("note:") and "frontier" in d for d in diags)


class TestStaircaseDefault:
    def test_shape(self):
        prog = staircase_default()
        kinds = [type(s).__name__ for s in prog.steps]
        assert kinds == ["Spatial", "Temporal", "Spatial", "Temporal"]
        assert all(len(s.modified_links) == 2 for s in prog.steps
                   if isinstance(s, Temporal))

    def test_plaquettes_are_adjacent_in_central_column(self):
        lat = build_cross()
        prog = staircase_default()
        s1, s2 = prog.steps[0], prog.steps[2]
        shared = set(s1.links) & set(s2.links)
        assert len(shared) == 1          # the two cells share one link

    def test_tau_parameter(self):
        prog = staircase_default(0.25)
        assert [s.tau for s in prog.steps if isinstance(s, Temporal)] == \
            [0.25, 0.25]


class TestTextFormat:
    def test_round_trip(self):
        prog = LoopProgram([Spatial([3, 4, 5]), Temporal(1.25, {3, 5}),
                            Temporal(0.5, ()), Spatial([5, 4, 3])])
        back = program_from_text(program_to_text(prog))
        assert back == prog

    def test_comments_and_blanks(self):
        text = "# a loop\nSPATIAL 0 1 2 3\n\nTEMPORAL 1 0 1 2 3  # inline\n"
        prog = program_from_text(text)
        assert len(prog.steps) == 2
        assert prog.steps[1].modified_links == frozenset({0, 1, 2, 3})

    def test_bad_records(self):
        with pytest.raises(ProgramError):
            program_from_text("SPATIAL\n")
        with pytest.raises(ProgramError):
            program_from_text("TEMPORAL 1.0\n")
        with pytest.raises(ProgramError):
            program_from_text("EVOLVE 1.0 2.0\n")
        with pytest.raises(ProgramError):
            program_from_text("WIBBLE 3\n")


@pytest.mark.parametrize("steps, expected", [
    (["spatial"], ["error: step 0: unknown step type <class 'str'>"]),
    ([Spatial([])], []),
], ids=["unknown-step-type", "empty-spatial-step"])
def test_input_check(steps, expected):
    assert validate_program(build_rect(1, 1), LoopProgram(steps)) == expected
