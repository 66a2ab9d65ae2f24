"""Lattice geometry: constructors, invariants, diagnostics, text format."""

import pytest

from z2wilson.lattice import (CROSS_CELLS, Lattice, _build_from_cells,
                              build_cross, build_rect, lattice_from_text,
                              lattice_to_text, validate)


def plus_pentomino_reference():
    """Independent enumeration of the plus-pentomino edges and vertices."""
    cells = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    edges = set()
    verts = set()
    for x, y in cells:
        verts |= {(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)}
        edges |= {((x, y), (x + 1, y)), ((x, y + 1), (x + 1, y + 1)),
                  ((x, y), (x, y + 1)), ((x + 1, y), (x + 1, y + 1))}
    return verts, edges


class TestBuildCross:
    def test_counts(self):
        lat = build_cross()
        assert lat.n_links == 16
        assert lat.n_vertices == 12
        assert lat.n_plaquettes == 5

    def test_matches_exhaustive_enumeration(self):
        verts, edges = plus_pentomino_reference()
        lat = build_cross()
        assert lat.n_vertices == len(verts)
        assert lat.n_links == len(edges)

    def test_constraint_counting_gives_dim_32(self):
        lat = build_cross()
        assert 2 ** (lat.n_links - lat.n_vertices + 1) == 32

    def test_self_validates(self):
        assert validate(build_cross()) == []


class TestBuildRect:
    @pytest.mark.parametrize("w,h,links,verts,plaqs", [
        (1, 1, 4, 4, 1),
        (2, 1, 7, 6, 2),
        (3, 2, 17, 12, 6),
    ])
    def test_counts(self, w, h, links, verts, plaqs):
        lat = build_rect(w, h)
        assert (lat.n_links, lat.n_vertices, lat.n_plaquettes) == \
            (links, verts, plaqs)

    def test_formula_vs_direct_enumeration(self):
        for w in range(1, 5):
            for h in range(1, 4):
                lat = build_rect(w, h)
                edges = set()
                for x in range(w):
                    for y in range(h + 1):
                        edges.add(("h", x, y))
                for x in range(w + 1):
                    for y in range(h):
                        edges.add(("v", x, y))
                assert lat.n_links == len(edges)
                assert lat.n_links == w * (h + 1) + h * (w + 1)
                assert lat.n_vertices == (w + 1) * (h + 1)

    @pytest.mark.parametrize("w,h", [(0, 1), (1, 0), (-2, 3)])
    def test_rejects_empty(self, w, h):
        with pytest.raises(ValueError):
            build_rect(w, h)

    def test_each_link_in_exactly_two_stars(self):
        for lat in (build_rect(2, 3), build_cross()):
            star_sizes = sum(len(s) for s in lat.stars)
            assert star_sizes == 2 * lat.n_links

    def test_star_sizes_open_boundary(self):
        lat = build_rect(2, 2)
        sizes = sorted(len(s) for s in lat.stars)
        assert set(sizes) <= {2, 3, 4}
        assert sizes.count(2) == 4        # corners
        assert sizes.count(4) == 1        # single interior vertex

    def test_plaquettes_are_cycles(self):
        lat = build_rect(3, 3)
        for plaq in lat.plaquettes:
            verts = set()
            for li in plaq:
                verts.update(lat.links[li])
            assert len(verts) == 4

    def test_cells_below_the_origin(self):
        # rows are numbered from the lowest cell, so a shifted cell set
        # gives the same lattice
        rect = [(x, y) for y in range(2) for x in range(3)]
        for cells in (CROSS_CELLS, rect):
            shifted = [(x, y - 3) for x, y in cells]
            assert (lattice_to_text(_build_from_cells(shifted))
                    == lattice_to_text(_build_from_cells(list(cells))))
        lat = _build_from_cells([(0, -1), (0, 0)])
        assert lattice_to_text(lat) == lattice_to_text(build_rect(1, 2))


class TestValidate:
    def test_repeated_link_in_plaquette(self):
        lat = build_rect(1, 1)
        bad = Lattice(lat.n_vertices, lat.links,
                      ((0, 0, 2, 3),))
        diags = validate(bad)
        assert len(diags) == 1
        assert "plaquette 0" in diags[0]

    def test_self_loop_link(self):
        bad = Lattice(4, ((0, 0), (0, 1), (1, 2), (2, 3), (3, 0)), ())
        diags = validate(bad)
        assert any("link 0" in d and "coincide" in d for d in diags)

    def test_non_cycle_plaquette(self):
        lat = build_rect(2, 1)
        # links 0 and 1 are the two bottom horizontals: not a 4-cycle
        bad = Lattice(lat.n_vertices, lat.links, ((0, 1, 5, 6),))
        diags = validate(bad)
        assert any("plaquette 0" in d for d in diags)

    def test_out_of_range_endpoint(self):
        bad = Lattice(2, ((0, 5), (0, 1)), ())
        assert any("out of range" in d for d in validate(bad))


class TestTextFormat:
    def test_round_trip(self):
        for lat in (build_cross(), build_rect(2, 3)):
            text = lattice_to_text(lat)
            back = lattice_from_text(text)
            assert back.links == lat.links
            assert back.plaquettes == lat.plaquettes
            assert back.n_vertices == lat.n_vertices

    def test_header_format(self):
        text = lattice_to_text(build_cross())
        assert text.splitlines()[0] == "LATTICE v=12 e=16 p=5"

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError):
            lattice_from_text("LINK 0 0 1\n")

    def test_comment_lines_ignored(self):
        text = lattice_to_text(build_rect(1, 1)) + "# trailing comment\n"
        assert lattice_from_text(text).n_links == 4
