"""Metamorphic tests: a program and its image under a symmetry of the cross.

A lattice symmetry permutes links and plaquettes and commutes with H, so a
loop program and its image must give the same exact <W>, the same sweep
rows and the same Hadamard-test p_plus, to rounding.  The link map is built
here from cell coordinates and the numbering rule documented in
``lattice.py`` (vertices row-major from the bottom-left corner; per row,
the horizontal links by x, then the vertical links rising from it by x;
plaquettes row-major, counterclockwise from the bottom link), not from
``gauge`` or the routes under test.  A link-numbering or orientation bug
that every route shares breaks these tests.
"""

import numpy as np
import pytest

from conftest import cell_links, numbered_links
from z2wilson.gauge import (Z2Model, build_physical_sector, ground_state,
                            project_to_sector, sector_ground_state)
from z2wilson.lattice import build_cross
from z2wilson.programs import (LoopProgram, Spatial, Temporal,
                               program_errors, staircase_default)
from z2wilson.trotter import exact_loop_operator, sweep
from z2wilson.wilson import hadamard_test

CELLS = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))    # the cross, in a 3x3 box
SYMMETRIES = {
    "mirror": lambda x, y: (3 - x, y),               # on vertex coordinates
    "rotation": lambda x, y: (3 - y, x),             # 90 degrees
}
TOL = 1e-12


def link_map(cells, sym):
    """Link i -> the link its image under ``sym`` occupies."""
    links = numbered_links(cells)
    index = {frozenset(ends): i for i, ends in enumerate(links)}
    return [index[frozenset(sym(*p) for p in ends)] for ends in links]


def image(program, m):
    steps = []
    for step in program.steps:
        if isinstance(step, Spatial):
            steps.append(Spatial([m[li] for li in step.links]))
        else:
            steps.append(Temporal(step.tau, {m[li] for li in
                                             step.modified_links}))
    return LoopProgram(steps)


PROGRAMS = {
    "staircase": staircase_default(1.0),
    # an open chain: the temporal band runs in a charged sector
    "chain": LoopProgram([Spatial([4, 8]), Temporal(0.7, [4, 8]),
                          Spatial([8, 4])]),
    "plaquette": LoopProgram([Spatial([0, 2, 4, 1]), Temporal(0.4, ()),
                              Spatial([4, 1, 0, 2])]),
}


def test_numbering_rule_is_the_lattice_numbering():
    lat = build_cross()
    coords = sorted({p for ends in numbered_links(CELLS) for p in ends},
                    key=lambda p: (p[1], p[0]))
    vid = {p: i for i, p in enumerate(coords)}
    assert lat.links == tuple((vid[a], vid[b])
                              for a, b in numbered_links(CELLS))
    links = {ends: i for i, ends in enumerate(numbered_links(CELLS))}
    assert lat.plaquettes == tuple(
        tuple(links[ends] for ends in cell_links(cell))
        for cell in sorted(CELLS, key=lambda c: (c[1], c[0])))


@pytest.mark.parametrize("name", sorted(SYMMETRIES))
def test_symmetry_maps_the_cross_onto_itself(name):
    m = link_map(CELLS, SYMMETRIES[name])
    assert sorted(m) == list(range(16)) and m != list(range(16))
    plaqs = {frozenset(p) for p in build_cross().plaquettes}
    assert {frozenset(m[li] for li in p) for p in plaqs} == plaqs


@pytest.fixture(scope="module", params=[2.0, 10.0])
def setting(request):
    model = Z2Model(build_cross(), request.param)
    sector = build_physical_sector(model)
    return model, sector, sector_ground_state(model, sector)[1]


@pytest.mark.parametrize("sym", sorted(SYMMETRIES))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
class TestImageAgrees:
    def pair(self, name, sym):
        program = PROGRAMS[name]
        mapped = image(program, link_map(CELLS, SYMMETRIES[sym]))
        assert program_errors(build_cross(), mapped) == []
        return program, mapped

    def test_exact_wilson_loop(self, setting, name, sym):
        model, sector, coords = setting
        vals = [np.vdot(coords, exact_loop_operator(model, sector, p)
                        @ coords) for p in self.pair(name, sym)]
        assert abs(vals[0] - vals[1]) < TOL

    def test_sweep_rows(self, setting, name, sym):
        model, sector, _ = setting
        _, amps = ground_state(model, sector)
        psi = project_to_sector(sector, amps)
        rows = [sweep(model, p, psi, [8, 16, 32], sector).rows
                for p in self.pair(name, sym)]
        assert [n for n, _, _ in rows[0]] == [n for n, _, _ in rows[1]]
        assert np.max(np.abs(np.subtract(rows[0], rows[1]))) < TOL

    def test_hadamard_p_plus(self, setting, name, sym):
        model, sector, coords = setting
        p = [hadamard_test(model, sector, coords, q, 2)
             for q in self.pair(name, sym)]
        assert abs(p[0] - p[1]) < TOL
