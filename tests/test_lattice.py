"""Lattice geometry: constructors, invariants, diagnostics, text format."""

import random
from collections import Counter

import pytest

from z2wilson.gauge import _link_mask
from z2wilson.lattice import (CROSS_CELLS, Lattice, _build_from_cells,
                              _link_walk, boundary_walk, build_cross, build_rect,
                              lattice_from_text, lattice_to_text, validate)


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


class TestStarMasks:
    @pytest.mark.parametrize("lat", [build_cross()] + [
        build_rect(w, h) for w in range(1, 5) for h in range(1, 4)],
        ids=["cross"] + [f"rect{w}x{h}" for w in range(1, 5)
                         for h in range(1, 4)])
    def test_masks_are_the_stars_link_masks(self, lat):
        assert lat.star_masks == tuple(_link_mask(lat.star(v))
                                       for v in range(lat.n_vertices))

    def test_self_loop_cancels(self):
        lat = Lattice(2, ((0, 1), (1, 1)), ())
        assert lat.stars == ((0,), (0, 1, 1))
        assert lat.star_masks == (0b1, 0b1)


def rect_perimeter_formula(width, height):
    """Boundary of rect:WxH from the link numbering's closed form (per row
    of 2W + 1 links: W horizontal, then W + 1 vertical), counterclockwise
    from link 0: the reference the walk must reproduce."""
    def hid(x, y):
        return y * (2 * width + 1) + x

    def vid(x, y):
        return y * (2 * width + 1) + width + x

    out = [hid(x, 0) for x in range(width)]
    out += [vid(width, y) for y in range(height)]
    out += [hid(x, height) for x in reversed(range(width))]
    out += [vid(0, y) for y in reversed(range(height))]
    return out


class TestBoundaryWalk:
    def test_rect_matches_perimeter_formula(self):
        for w in range(1, 8):
            for h in range(1, 8):
                assert boundary_walk(build_rect(w, h)) == \
                    rect_perimeter_formula(w, h), (w, h)

    def test_cross_is_one_closed_walk(self):
        lat = build_cross()
        walk = boundary_walk(lat)
        assert len(walk) == 12 and walk[0] == 0
        # consecutive links share a vertex, the last closing on the first
        for a, b in zip(walk, walk[1:] + walk[:1]):
            assert set(lat.links[a]) & set(lat.links[b])
        in_one = [li for li in range(lat.n_links)
                  if sum(li in p for p in lat.plaquettes) == 1]
        assert sorted(walk) == in_one

    @pytest.mark.parametrize("cells", [
        [(0, 0), (1, 1)],                                    # corner only
        [(x, y) for x in range(3) for y in range(3) if (x, y) != (1, 1)],
    ], ids=["corner", "ring"])
    def test_not_one_simple_cycle(self, cells):
        with pytest.raises(ValueError, match="not one simple cycle"):
            boundary_walk(_build_from_cells(cells))

    def test_no_plaquettes(self):
        with pytest.raises(ValueError, match="not one simple cycle"):
            boundary_walk(Lattice(2, ((0, 1),), ()))

    def test_returned_walk_is_the_boundary_once(self):
        # random cell sets in a 4 x 4 box, connected or not: whenever the
        # walk is returned, it is one closed link walk that uses every
        # link of exactly one plaquette once
        rng = random.Random(2)
        box = [(x, y) for x in range(4) for y in range(4)]
        returned = 0
        for _ in range(400):
            lat = _build_from_cells(rng.sample(box, rng.randint(1, 7)))
            try:
                walk = boundary_walk(lat)
            except ValueError:
                continue
            returned += 1
            verts = _link_walk(lat, walk)
            assert len(verts) == len(walk) + 1 and verts[0] == verts[-1]
            count = Counter(li for plaq in lat.plaquettes for li in plaq)
            assert sorted(walk) == sorted(li for li, c in count.items()
                                          if c == 1)
        assert returned > 50


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

    def test_plaquette_that_is_not_a_closed_walk(self):
        # rect:2x1 plus a second link 7 beside link 3: the links of
        # (0, 3, 1, 7) meet cyclically and touch four vertices, but after
        # links 0 and 3 reach vertex 4, link 1 does not continue the walk
        lat = build_rect(2, 1)
        bad = Lattice(lat.n_vertices, lat.links + ((1, 4),),
                      lat.plaquettes + ((0, 3, 1, 7),))
        assert validate(bad) == ["plaquette 2: links (0, 3, 1, 7) do not "
                                 "form a 4-cycle"]

    def test_out_of_range_endpoint(self):
        bad = Lattice(2, ((0, 5), (0, 1)), ())
        assert any("out of range" in d for d in validate(bad))

    @pytest.mark.parametrize("n_vertices", [0, -3])
    def test_no_vertices(self, n_vertices):
        diags = validate(Lattice(n_vertices, (), ()))
        assert diags == [f"{n_vertices} vertices: a lattice needs at "
                         "least one"]

    def test_disconnected_graph(self):
        # two unit squares that share no vertex: each passes every local
        # check, but the pair has two redundant Gauss laws, not one
        diags = validate(_build_from_cells([(0, 0), (2, 0)]))
        assert diags == ["vertices [2, 3, 6, 7] are not connected to "
                         "vertex 0"]
        # squares that share one corner form one graph
        assert validate(_build_from_cells([(0, 0), (1, 1)])) == []


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
