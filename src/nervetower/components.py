"""Connected components of nerve skeletons and the component tower of a system.

Counting components of the depth-k nerves and relating consecutive depths via
the truncation maps is how the tool talks about connectedness of the invariant
set itself.  That translation is only licensed when every address's nested
cell intersection is connected; for geometric systems whose cell maps contract
this holds automatically (the intersections are single points), otherwise the
caller must assert it and the tower refuses a verdict if nobody does.

The r = 0 limit verdict of the Betti table reads the same inverse limit, so
both come from one table, DIM0_MECHANISMS; the component verdict only adds
the hypothesis gate above.

A level built as block copies of the level below takes its components from
that level's and the union along its crossing edges, in work linear in the
number of components, and lists each pair of components they join once;
vertex labels are read down that chain on demand, and the parent links take
one lookup per component.  A level swept from interval ends is one
component by coverage, with no union-find, and the pairs of blocks its
edges join are N_1's edges.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Literal, Optional

from .oracles import ConsistencyError
from .words import _Frozen, _Record

if TYPE_CHECKING:  # nerve builds on this module: TowerData holds each nerve's components
    from .nerve import SimplicialComplex, TowerData


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


class ComponentsLevel(_Frozen):
    """Components of one nerve's 1-skeleton.

    Components are numbered 0..count-1 in order of their least vertex (its
    lexicographically least word), which representatives holds.  crossing
    lists the distinct pairs of components within blocks (a block is the
    words sharing a first symbol) that an edge between two blocks joins,
    each pair once and in order of the first such edge: the least vertex of
    each end's component within its block, in the edge's order.

    A level found by a pass over every edge, or by coverage, has `below`
    None and ids[v] the component of vertex v.  A level found from the components `below` of its
    block source has, for block j (from 0) and component c of `below`,
    ids[j below.count + c] the component holding j.c; `block` is the number
    of words in a block.  `label` reads the component of a vertex off
    that chain of levels.
    """

    __slots__ = _fields = ("count", "representatives", "crossing", "ids", "block", "below")
    _defaults = {"below": None}
    count: int
    representatives: tuple[int, ...]
    crossing: tuple[tuple[int, int], ...]
    ids: tuple[int, ...]
    block: int
    below: Optional[ComponentsLevel]

    def label(self, v: int) -> int:
        """The component of vertex v: one lookup per level of the chain."""
        path = []
        level = self
        while level.below is not None:
            path.append((level, v // level.block))
            v %= level.block
            level = level.below
        label = level.ids[v]
        for level, j in reversed(path):
            label = level.ids[j * level.below.count + label]
        return label


def components(complex_: SimplicialComplex) -> ComponentsLevel:
    """The components of each block (the words sharing a first symbol), then
    one union-find over those that unites only the edges crossing blocks,
    and the pairs of those components that the edges join, each listed once:
    a repeated pair unites nothing more.

    A level without a block source finds the components of each block by a
    union-find over every edge inside one.  A level with one copies its
    source's edges into every block (`nerve.SimplicialComplex`), so the
    components of block j are j.c for the components c the source keeps,
    and the least vertex of j.c is (j - 1) m^(level - 1) plus that of c.
    Only the crossing edges the complex adds are then read, and the work is
    linear in the number of components, not of vertices.

    A level with a cover is one component, with no union-find: its
    intervals leave no gap (`nerve._swept_level` refuses a level with one),
    and an interval graph is connected when the union of its intervals is.
    So is each block, the image under phi_j of the level below
    (`oracles.interval_ends`), whose union is the envelope; the pairs of
    blocks j and k that an edge joins are the cover's, N_1's edges, and
    each is the pair of their first vertices.
    """
    m = complex_.m
    n = m ** complex_.level
    block = n // m
    if complex_.cover:
        crossing = tuple((j * block, k * block) for j, k in complex_.cover.crossing)
        return ComponentsLevel(1, (0,), crossing, (0,) * n, block)
    below = None if complex_.block_source is None else complex_.block_source.components
    # within(v) is the component of v within its block; they are numbered in
    # order of their least vertices, least[x]
    if below is None:
        uf = UnionFind(n)
        edges = []
        for a, b in complex_.simplices_of(1):
            if a // block == b // block:
                uf.union(a, b)
            else:
                edges.append((a, b))
        inner: list[int] = []
        least: list[int] = []
        index: dict[int, int] = {}
        for v in range(n):
            root = uf.find(v)
            if root not in index:
                index[root] = len(least)
                least.append(v)
            inner.append(index[root])
        within = inner.__getitem__
    else:
        edges = complex_.added.get(1, ())
        least = [o + v for o in range(0, n, block) for v in below.representatives]

        def within(v: int) -> int:
            return v // block * below.count + below.label(v % block)
    uf = UnionFind(len(least))
    crossing = {}  # the pairs of components within blocks, each once, in order
    for a, b in edges:
        x, y = within(a), within(b)
        uf.union(x, y)
        crossing[least[x], least[y]] = None
    ids: dict[int, int] = {}
    component = [ids.setdefault(uf.find(x), len(ids)) for x in range(len(least))]
    first: dict[int, int] = {}  # component -> its least vertex
    for x, c in enumerate(component):
        first.setdefault(c, least[x])
    if below is None:
        component = [component[x] for x in inner]
    return ComponentsLevel(len(first), tuple(first.values()), tuple(crossing),
                           tuple(component), block, below)


VerdictKind = Literal[
    "connected",
    "finitely-many",
    "countably-infinite-plus",
    "uncountable",
    "growing-unknown",
]


VerdictStatus = Literal["finite", "infinite", "unknown"]


class LimitVerdict(_Record):
    __slots__ = _fields = ("status", "value", "mechanism", "detail")
    _defaults = {"detail": ""}
    status: VerdictStatus
    value: Optional[int]  # the limit dimension, when finite
    mechanism: str
    detail: str


class ComponentVerdict(_Record):
    __slots__ = _fields = ("kind", "count", "mechanism", "detail")
    _defaults = {"detail": ""}
    kind: VerdictKind
    count: Optional[int]  # set for connected / finitely-many
    mechanism: str
    detail: str


class ComponentTower(_Record):
    """Component counts per depth, parent links, and the licensed verdict."""

    __slots__ = _fields = ("name", "counts", "parents", "hypothesis", "verdict")
    name: str
    counts: list[int]
    parents: list[tuple[int, ...]]  # as in Dim0Facts
    hypothesis: str  # 'verified-contraction' | 'user-asserted' | 'unverified'
    verdict: ComponentVerdict


def stationary_bound(m: int, a01: int, a11: int) -> Fraction:
    """A postunbranched count above (m - a_{0,1} + a_{1,1}) / (m - 1) keeps growing."""
    return Fraction(m - a01 + a11, m - 1)


class Dim0Facts(_Record):
    """What the dim-0 mechanisms read off depths 1..K of a tower."""

    __slots__ = _fields = ("m", "counts", "parents", "isolated", "injective", "split_ok",
                           "postunbranched", "n1_betti")
    m: int
    counts: list[int]
    parents: list[tuple[int, ...]]  # parents[i][c] = component at depth i+1 containing c's image
    isolated: tuple[int, ...]       # depth-1 cells (as symbols) that meet no other cell
    injective: Optional[bool]       # asserted, or read off geometric maps; else None
    split_ok: bool                  # injective cell maps, or backward (cells are preimages)
    postunbranched: bool
    n1_betti: Optional[tuple[int, int]]  # (a_{0,1}, a_{1,1}) over a field

    @property
    def bound(self) -> Fraction:
        return stationary_bound(self.m, *self.n1_betti)


def dim0_facts(tower: TowerData, *, assert_injective: bool,
               postunbranched: Optional[bool], n1_betti: Optional[tuple[int, int]]) -> Dim0Facts:
    """The facts of every depth of the tower."""
    spec = tower.spec
    levels = tower.components
    counts = [lv.count for lv in levels]
    if any(b < a for a, b in zip(counts, counts[1:])):
        raise ConsistencyError("component counts decreased along the tower")
    # Truncation is simplicial (tower_complexes checks it), so it maps each
    # component of N_{k+1} into one component of N_k: the parent of a
    # component is that of any one of its vertices, here its least.
    parents = [tuple(shallow.label(v // spec.m) for v in deep.representatives)
               for deep, shallow in zip(levels[1:], levels)]
    injective = assert_injective or spec.injective
    touched = {v for edge in tower.complexes[0].simplices_of(1) for v in edge}
    return Dim0Facts(spec.m, counts, parents,
                     tuple(j + 1 for j in range(spec.m) if j not in touched), injective,
                     spec.orientation == "backward" or bool(injective),
                     postunbranched is True, n1_betti)


class Dim0Mechanism(_Frozen):
    """One way to settle the limit at r = 0, i.e. the invariant set's components.

    Tried only when every Dim0Facts field in `needs` is truthy.  The details
    format the facts `f`; the component detail defaults to the limit detail.
    """

    __slots__ = _fields = ("name", "needs", "status", "kind", "applies", "licence", "detail",
                           "component_detail")
    _defaults = {"component_detail": ""}
    name: str
    needs: tuple[str, ...]
    status: VerdictStatus  # a finite limit is the deepest count
    kind: VerdictKind
    applies: Callable[[Dim0Facts], bool]
    licence: str
    detail: str
    component_detail: str


# Tried in order; the first that applies settles both the r = 0 limit verdict
# and the component verdict.
DIM0_MECHANISMS: tuple[Dim0Mechanism, ...] = (
    Dim0Mechanism(
        "connected-base", (), "finite", "connected", lambda f: f.counts[0] == 1,
        "each block of N_{k+1} holds a copy of N_k, joined wherever depth-1 cells meet",
        "connected at depth 1, hence at every depth",
        "depth-1 nerve connected, hence every depth is"),
    Dim0Mechanism(
        "two-block-split", ("split_ok",), "infinite", "uncountable",
        lambda f: f.m == 2 and len(f.isolated) == 2,
        "split maps keep the cells of distinct words disjoint: one component per sequence",
        "two disjoint cells: components biject with the full shift",
        "two generators with disjoint cells: components biject with the full shift"),
    Dim0Mechanism(
        "isolated-block", ("split_ok",), "infinite", "countably-infinite-plus",
        lambda f: bool(f.isolated),
        "an isolated cell j gives the constant-j address its own component at every depth",
        "cell {f.isolated[0]} meets no other cell, forcing strictly growing counts",
        "cell {f.isolated[0]} meets no other cell: the constant-{f.isolated[0]} address is "
        "an isolated component and counts grow strictly"),
    Dim0Mechanism(
        "pu-count-lower-bound", ("postunbranched", "n1_betti"), "infinite",
        "countably-infinite-plus", lambda f: f.n1_betti[0] > f.bound,
        "postunbranched count bound of arXiv:0804.3822, applied at depth 1",
        "depth-1 count {f.n1_betti[0]} exceeds the stationary bound {f.bound}",
        "depth-1 count {f.n1_betti[0]} exceeds the stationary bound {f.bound}, "
        "forcing strict growth"),
    Dim0Mechanism(
        "pu-escaped-bound", ("postunbranched", "n1_betti"), "infinite",
        "countably-infinite-plus", lambda f: any(c > f.bound for c in f.counts),
        "postunbranched count bound of arXiv:0804.3822, applied at a deeper computed depth",
        "a computed count exceeds the stationary bound, forcing strict growth from there on"),
    Dim0Mechanism(
        "pu-small-m-disconnected", ("postunbranched", "n1_betti"), "infinite",
        "countably-infinite-plus", lambda f: 2 <= f.m <= 6,
        "postunbranched with m <= 6: a disconnected N_1 never stabilizes (arXiv:0804.3822)",
        "disconnected depth-1 nerve with at most 6 generators cannot stabilize"),
    Dim0Mechanism(
        "stabilized-components", (), "finite", "finitely-many",
        lambda f: len(f.counts) >= 2 and f.counts[-2] == f.counts[-1] == len(set(f.parents[-1])),
        "observed on the deepest two computed depths only: a plateau can split again deeper",
        "counts equal on the deepest two depths with a bijective parent map",
        "counts equal at depths {prev} and {depth} with a bijective parent map"),
    Dim0Mechanism(
        "no-certificate", (), "unknown", "growing-unknown", lambda f: True,
        "no mechanism applies; counts are reported only",
        "", "counts still changing at the deepest computed level"),
)


def dim0_verdict(facts: Dim0Facts) -> tuple[LimitVerdict, ComponentVerdict]:
    """Both verdicts from the first mechanism that applies, for a tower free of
    undecided intersections (after checking the invariants such a tower has)."""
    counts = facts.counts
    if counts[0] == 1:
        if any(c != 1 for c in counts):
            raise ConsistencyError("connected base nerve but a deeper nerve is disconnected")
    elif facts.split_ok and facts.isolated and any(b <= a for a, b in zip(counts, counts[1:])):
        raise ConsistencyError("isolated depth-1 cell forces strictly growing counts")
    mech = next(m for m in DIM0_MECHANISMS
                if all(getattr(facts, need) for need in m.needs) and m.applies(facts))
    value = counts[-1] if mech.status == "finite" else None
    limit, component = (text.format(f=facts, prev=len(counts) - 1, depth=len(counts))
                        for text in (mech.detail, mech.component_detail or mech.detail))
    return (LimitVerdict(mech.status, value, mech.name, limit),
            ComponentVerdict(mech.kind, value, mech.name, component))


def component_tower(tower: TowerData, facts: Dim0Facts, *,
                    assert_lx_connected: bool = False) -> ComponentTower:
    """Counts, parent links, and a verdict about the invariant set's components.

    facts are the ones a Betti table derived for every depth of this tower
    (BettiTable.facts, or `dim0_facts` of the whole tower).
    """
    spec = tower.spec
    if len(facts.counts) != tower.depth:
        raise ConsistencyError("dim-0 facts cover a different depth than the tower")
    if spec.is_geometric:
        hypothesis = "verified-contraction"  # cell maps contract, so nested cells shrink to points
    elif assert_lx_connected:
        hypothesis = "user-asserted"
    else:
        hypothesis = "unverified"

    if hypothesis == "unverified":
        verdict = ComponentVerdict(
            "growing-unknown", None, "hypothesis-unverified",
            "address cell connectedness neither verified nor asserted; counts reported only")
    elif any(c.uncertain for c in tower.complexes):
        verdict = ComponentVerdict(
            "growing-unknown", None, "uncertain-simplices",
            "some cell intersections undecided; counts are lower bounds")
    else:
        verdict = dim0_verdict(facts)[1]
    return ComponentTower(spec.name, facts.counts, facts.parents, hypothesis, verdict)
