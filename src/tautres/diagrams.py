"""Young diagrams in d dimensions, curvilinear sums, and set partition calculus.

Boxes are 0-based integer tuples; a diagram is a finite downward-closed
set containing the origin.  The 2-dim partition (l_1 >= l_2 >= ...)
corresponds to {(i, j) : 0 <= i < l_{j+1}} (French convention, rows
along the first axis).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import factorial
from operator import mul

from .record import Record


class DiagramND(Record):
    dim: int
    boxes: frozenset

    def __post_init__(self):
        if not self.boxes:
            raise ValueError("empty diagram")
        for b in self.boxes:
            if len(b) != self.dim or any(c < 0 for c in b):
                raise ValueError("bad box %r for dim %d" % (b, self.dim))
            for axis in range(self.dim):
                if b[axis] > 0:
                    below = list(b)
                    below[axis] -= 1
                    if tuple(below) not in self.boxes:
                        raise ValueError("not downward closed at %r" % (b,))

    def __len__(self):
        return len(self.boxes)

    def sorted_boxes(self):
        return tuple(sorted(self.boxes))

    def __repr__(self):
        return "DiagramND(%d, {%s})" % (
            self.dim,
            ", ".join(str(b) for b in self.sorted_boxes()),
        )


def diagram(dim: int, boxes) -> DiagramND:
    return DiagramND(dim, frozenset(tuple(b) for b in boxes))


def from_partition(parts) -> DiagramND:
    """2-dim diagram of an integer partition, e.g. (2,1) -> {(0,0),(1,0),(0,1)}."""
    parts = tuple(int(p) for p in parts)
    if not parts or any(p <= 0 for p in parts):
        raise ValueError("partition parts must be positive")
    boxes = {(i, j) for j, p in enumerate(parts) for i in range(p)}
    return DiagramND(2, frozenset(boxes))


def to_partition(d: DiagramND):
    """Row lengths along the first axis; defined for any 2-dim diagram
    whose rows are initial segments (always true for valid diagrams)."""
    if d.dim != 2:
        raise ValueError("to_partition needs a 2-dim diagram")
    rows: dict = {}
    for (i, j) in d.boxes:
        rows[j] = max(rows.get(j, 0), i + 1)
    return tuple(rows[j] for j in range(len(rows)))


def lengths(d: DiagramND) -> tuple:
    """Maximal coordinate along each axis (0-based extents)."""
    return tuple(max(b[axis] for b in d.boxes) for axis in range(d.dim))


def _permute(d: DiagramND, perm) -> DiagramND:
    return DiagramND(d.dim, frozenset(tuple(b[p] for p in perm) for b in d.boxes))


def orient_well(d: DiagramND) -> DiagramND:
    """Axis permutation with lengths weakly decreasing.

    Axes are stably sorted by length, so tied axes keep their relative
    order and an already well-oriented diagram comes back unchanged.
    Leaving tied axes in place is what keeps the slice sum associative:
    a sum of well-oriented diagrams is itself well-oriented, and the
    stable sort then fixes it instead of reshuffling tied slices.
    """
    ls = lengths(d)
    perm = tuple(sorted(range(d.dim), key=lambda axis: -ls[axis]))
    if perm == tuple(range(d.dim)):
        return d
    return _permute(d, perm)


def _fiber_lengths(d: DiagramND) -> dict:
    """Map from the trailing coordinates to the run length along axis 0."""
    out: dict = {}
    for b in d.boxes:
        tail = b[1:]
        out[tail] = max(out.get(tail, 0), b[0] + 1)
    return out


def curvilinear_sum(diagrams) -> DiagramND:
    """Sum along the first axis after well-orienting every input.

    The run length of the result over each trailing coordinate is the
    sum of the inputs' run lengths there.  For two or more inputs the
    first axis of the result is strictly longest and the trailing
    extents are maxima of already sorted extents, so the result is
    well-oriented as computed and the closing orient_well is a no-op;
    that is what makes the operation commutative and associative.
    Box counts add.
    """
    diagrams = list(diagrams)
    if not diagrams:
        raise ValueError("need at least one diagram")
    dim = diagrams[0].dim
    if any(x.dim != dim for x in diagrams):
        raise ValueError("dimension mismatch")
    fibers: dict = {}
    for x in diagrams:
        for tail, run in _fiber_lengths(orient_well(x)).items():
            fibers[tail] = fibers.get(tail, 0) + run
    boxes = {(i,) + tail for tail, run in fibers.items() for i in range(run)}
    return orient_well(DiagramND(dim, frozenset(boxes)))


def weight_map(d) -> dict:
    """Filtration weights: w(i) = j for d_1+...+d_{j-1} < i <= d_1+...+d_j."""
    out = {}
    i = 1
    for j, dj in enumerate(d, start=1):
        for _ in range(dj):
            out[i] = j
            i += 1
    return out


def degree_filtration(d: DiagramND) -> tuple:
    """Dimension vector of the grading by box degree (coordinate sum).

    Counts non-origin boxes by degree; entry j is the number of boxes
    of degree j+1.
    """
    top = max(sum(b) for b in d.boxes)
    counts = [0] * top
    for b in d.boxes:
        s = sum(b)
        if s:
            counts[s - 1] += 1
    return tuple(counts)


# -- set partitions -----------------------------------------------------


def set_partitions(s: int):
    """All partitions of {1..s} in restricted-growth-string order.

    Each partition is a tuple of blocks; each block a sorted tuple;
    blocks ordered by least element.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    out = []

    def grow(rgs, maxval):
        if len(rgs) == s:
            nblocks = maxval + 1
            blocks = [[] for _ in range(nblocks)]
            for idx, b in enumerate(rgs, start=1):
                blocks[b].append(idx)
            out.append(tuple(tuple(b) for b in blocks))
            return
        for v in range(maxval + 2):
            grow(rgs + [v], max(maxval, v))

    grow([0], 0)
    return out


def sieve_coefficient(beta) -> int:
    """Partition-lattice Moebius weight (-1)^(blocks-1) * (blocks-1)!."""
    t = len(beta)
    return (-1) ** (t - 1) * factorial(t - 1)


def merge_partition(mu, alpha):
    """Merge the blocks of mu according to a partition alpha of their indices."""
    mu = tuple(tuple(sorted(b)) for b in mu)
    s = len(mu)
    seen = sorted(x for blk in alpha for x in blk)
    if seen != list(range(1, s + 1)):
        raise ValueError("alpha must partition {1..%d}" % s)
    merged = []
    for blk in alpha:
        cell = sorted(x for j in blk for x in mu[j - 1])
        merged.append(tuple(cell))
    merged.sort(key=lambda cell: cell[0])
    return tuple(merged)


# -- exponential (Bell) transform ---------------------------------------


def bell_transform(a):
    """[a_1..a_r] -> [P_1..P_r] with P_m the sum over set partitions of
    {1..m} of the product of a_{block size}.  Works on any values with
    + and * (numbers, polynomials)."""
    a = list(a)
    out = []
    for m in range(1, len(a) + 1):
        parts = set_partitions(m)
        total = None
        for alpha in parts:
            prod = reduce(mul, [a[len(b) - 1] for b in alpha])
            total = prod if total is None else total + prod
        out.append(total)
    return out


def bell_inverse(p):
    """[P_1..P_r] -> [a_1..a_r], the logarithm transform, via the
    recurrence a_m = P_m - sum_{j<m} C(m-1, j-1) a_j P_{m-j}."""
    from math import comb

    p = list(p)
    a = []
    for m in range(1, len(p) + 1):
        val = p[m - 1]
        for j in range(1, m):
            val = val - comb(m - 1, j - 1) * a[j - 1] * p[m - j - 1]
        a.append(val)
    return a


def severi_count(p_r, r: int):
    """N_r = P_r / r!."""
    if r < 0:
        raise ValueError("r must be >= 0")
    scale = Fraction(1, factorial(r))
    if hasattr(p_r, "scale"):
        return p_r.scale(scale)
    return p_r * scale


# -- diagram text format -------------------------------------------------


def parse_diagram(text: str, dim: int | None = None) -> DiagramND:
    """Parse ``(2,1)`` (classical partition) or box lists ``0,0 1,0 0,1``."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        parts = [int(x) for x in text[1:-1].split(",") if x.strip()]
        return from_partition(parts)
    boxes = []
    for chunk in text.split():
        boxes.append(tuple(int(x) for x in chunk.split(",")))
    if not boxes:
        raise ValueError("no boxes in %r" % text)
    d = dim if dim is not None else len(boxes[0])
    return diagram(d, boxes)
