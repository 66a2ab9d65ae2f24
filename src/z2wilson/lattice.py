"""Open-boundary square-lattice geometry: links, plaquettes, vertex stars.

Two constructors are provided: rectangular grids of w x h unit plaquettes
and the 16-link "cross" (plus-pentomino, 5 plaquettes) used by the
proof-of-principle runs.  Numbering is deterministic: vertices row-major
from the bottom-left corner, links per row with horizontal links before
vertical ones, plaquettes row-major.  Each plaquette lists its links
counterclockwise starting from the bottom link.

Link orientation (v_from -> v_to) is stored but plays no role in the Z(2)
model; sigma_3 is its own inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field

Cell = tuple[int, int]

CROSS_CELLS: tuple[Cell, ...] = ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


@dataclass(frozen=True)
class Lattice:
    """Immutable lattice graph; safe for unrestricted concurrent reads."""

    n_vertices: int
    links: tuple[tuple[int, int], ...]
    plaquettes: tuple[tuple[int, int, int, int], ...]
    stars: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        stars: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for li, (a, b) in enumerate(self.links):
            for v in (a, b):
                if 0 <= v < self.n_vertices:
                    stars[v].append(li)
        object.__setattr__(self, "stars",
                           tuple(tuple(s) for s in stars))

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquettes)

    def star(self, vertex: int) -> tuple[int, ...]:
        if not 0 <= vertex < self.n_vertices:
            raise IndexError(f"vertex {vertex} out of range")
        return self.stars[vertex]


def _odd_links(links) -> set[int]:
    """Links listed an odd number of times: a walk's edge set over GF(2).

    sigma_3**2 = I, so this is the support of the sigma_3 product over the
    links; a link listed twice cancels.
    """
    odd: set[int] = set()
    for li in links:
        odd ^= {li}
    return odd


def _build_from_cells(cells: list[Cell]) -> Lattice:
    """Assemble a lattice from unit cells at integer coordinates (x, y)."""
    cellset = set(cells)
    vertices = set()
    h_edges = set()   # (x, y): edge from (x,y) to (x+1,y)
    v_edges = set()   # (x, y): edge from (x,y) to (x,y+1)
    for (x, y) in cellset:
        vertices.update({(x, y), (x + 1, y), (x, y + 1), (x + 1, y + 1)})
        h_edges.update({(x, y), (x, y + 1)})
        v_edges.update({(x, y), (x + 1, y)})

    vlist = sorted(vertices, key=lambda p: (p[1], p[0]))
    vid = {p: i for i, p in enumerate(vlist)}

    # per row, from the lowest: horizontal edges of that row, then vertical
    # edges rising from it
    ys = [y for _, y in vertices]
    link_list: list[tuple[int, int]] = []
    lid: dict[tuple[str, int, int], int] = {}
    for y in range(min(ys), max(ys) + 1):
        for x in sorted(ex for ex, ey in h_edges if ey == y):
            lid[("h", x, y)] = len(link_list)
            link_list.append((vid[(x, y)], vid[(x + 1, y)]))
        for x in sorted(ex for ex, ey in v_edges if ey == y):
            lid[("v", x, y)] = len(link_list)
            link_list.append((vid[(x, y)], vid[(x, y + 1)]))

    plaqs = []
    for (x, y) in sorted(cellset, key=lambda p: (p[1], p[0])):
        plaqs.append((lid[("h", x, y)],      # bottom
                      lid[("v", x + 1, y)],  # right
                      lid[("h", x, y + 1)],  # top
                      lid[("v", x, y)]))     # left
    return Lattice(len(vlist), tuple(link_list), tuple(plaqs))


def build_rect(width: int, height: int) -> Lattice:
    """Open grid of width x height plaquettes.

    n_links = width*(height+1) + height*(width+1) and
    n_vertices = (width+1)*(height+1).
    """
    if width < 1 or height < 1:
        raise ValueError(f"width and height must be >= 1, got {width}x{height}")
    return _build_from_cells([(x, y) for y in range(height) for x in range(width)])


def build_cross() -> Lattice:
    """Plus-pentomino lattice: 5 plaquettes, 16 links, 12 vertices.

    With one Gauss constraint per vertex (one redundant), the physical
    sector has dimension 2**(16 - 12 + 1) = 32.
    """
    return _build_from_cells(list(CROSS_CELLS))


def validate(lattice: Lattice) -> list[str]:
    """Diagnostics for every violated structural invariant (empty if none)."""
    out: list[str] = []
    nv, nl = lattice.n_vertices, lattice.n_links

    for li, (a, b) in enumerate(lattice.links):
        if not (0 <= a < nv and 0 <= b < nv):
            out.append(f"link {li}: endpoint out of range ({a},{b})")
        elif a == b:
            out.append(f"link {li}: endpoints coincide at vertex {a}")

    for pi, plaq in enumerate(lattice.plaquettes):
        if len(set(plaq)) != 4:
            out.append(f"plaquette {pi}: repeated link in {plaq}")
            continue
        if any(not 0 <= li < nl for li in plaq):
            out.append(f"plaquette {pi}: link index out of range in {plaq}")
            continue
        verts = set()
        closed = True
        for k in range(4):
            a1, b1 = lattice.links[plaq[k]]
            a2, b2 = lattice.links[plaq[(k + 1) % 4]]
            if not ({a1, b1} & {a2, b2}):
                closed = False
            verts.update({a1, b1})
        if not closed or len(verts) != 4:
            out.append(f"plaquette {pi}: links {plaq} do not form a 4-cycle")

    in_star = [0] * nl
    for v, star in enumerate(lattice.stars):
        if not 2 <= len(star) <= 4:
            out.append(f"star {v}: {len(star)} incident links (open lattice "
                       f"expects 2..4)")
        for li in star:
            in_star[li] += 1
    for li, cnt in enumerate(in_star):
        if cnt != 2:
            out.append(f"link {li}: appears in {cnt} stars, expected 2")
    return out


# ---------------------------------------------------------------------------
# line-oriented text format (used by the CLI --lattice option)
# ---------------------------------------------------------------------------

def lattice_to_text(lattice: Lattice) -> str:
    lines = [f"LATTICE v={lattice.n_vertices} e={lattice.n_links} "
             f"p={lattice.n_plaquettes}"]
    for li, (a, b) in enumerate(lattice.links):
        lines.append(f"LINK {li} {a} {b}")
    for pi, plaq in enumerate(lattice.plaquettes):
        lines.append(f"PLAQ {pi} {plaq[0]} {plaq[1]} {plaq[2]} {plaq[3]}")
    return "\n".join(lines) + "\n"


def lattice_from_text(text: str) -> Lattice:
    n_vertices = n_links = n_plaqs = None
    links: dict[int, tuple[int, int]] = {}
    plaqs: dict[int, tuple[int, int, int, int]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        if kind == "LATTICE":
            fields = dict(p.split("=", 1) for p in parts[1:])
            n_vertices = int(fields["v"])
            n_links = int(fields["e"])
            n_plaqs = int(fields["p"])
        elif kind == "LINK":
            links[int(parts[1])] = (int(parts[2]), int(parts[3]))
        elif kind == "PLAQ":
            plaqs[int(parts[1])] = tuple(int(p) for p in parts[2:6])
        else:
            raise ValueError(f"unknown lattice record {kind!r}")
    if n_vertices is None:
        raise ValueError("missing LATTICE header")
    if len(links) != n_links or sorted(links) != list(range(n_links)):
        raise ValueError("LINK records do not match header count")
    if len(plaqs) != n_plaqs or sorted(plaqs) != list(range(n_plaqs)):
        raise ValueError("PLAQ records do not match header count")
    return Lattice(n_vertices,
                   tuple(links[i] for i in range(n_links)),
                   tuple(plaqs[i] for i in range(n_plaqs)))
