"""Explicit permutations and exhaustive enumeration of small groups.

Enumeration is the canonical representation here: every group this package
materializes has order at most 10**6. Dimino's closure lists byte-encoded
elements coset by coset. Spectra and A_n classes are read off a two-point
slice that holds a conjugate of every element (see _two_point_slice). It is
built from the generators and the order alone: the point stabiliser G_0 is
closed from Schreier generators and the whole group never is, so M12 gives a
slice of 2,880 elements from a stabiliser of 7,920. The raw reader
_raw_classes takes the slice, finds each element's cycle lengths once, gives
the spectrum and the A_n classes as plain tuples and caches nothing;
alt_class_coverage wraps it, and type_spectrum reads the lengths alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import itemgetter

from .cycle_types import ClassId, CycleType, Parity, SplitTag, _is_even, _splits, is_split

__all__ = [
    "DEFAULT_CLOSURE_CAP",
    "ClosureCapExceeded",
    "GeneratedGroup",
    "Perm",
    "alt_class_coverage",
    "canonical_split_rep",
    "closure",
    "compose",
    "conjugate",
    "cycle_type_of",
    "cycles_of",
    "direct_product_gens",
    "inverse",
    "perm_parity",
    "split_class_of",
    "sym_gens",
    "type_spectrum",
    "wreath_gens",
]

DEFAULT_CLOSURE_CAP = 10**6


class ClosureCapExceeded(RuntimeError):
    """Raised when a closure would exceed its element cap."""


class Perm:
    """A permutation of {0..n-1} stored as its image tuple.

    Points are 0-indexed internally; cycle input/output is 1-indexed to match
    the usual written notation.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        n = len(imgs)
        if n == 0 or sorted(imgs) != list(range(n)):
            raise ValueError(f"not a bijection on 0..{n - 1}: {imgs}")
        self.images = imgs

    @classmethod
    def identity(cls, n: int) -> "Perm":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Perm":
        """Build from 1-indexed disjoint cycles; omitted points are fixed."""
        images = list(range(n))
        for cyc in cycles:
            pts = [p - 1 for p in cyc]
            if any(not 0 <= p < n for p in pts) or len(set(pts)) != len(pts):
                raise ValueError(f"bad cycle {list(cyc)} for degree {n}")
            for i, p in enumerate(pts):
                images[p] = pts[(i + 1) % len(pts)]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Perm") -> "Perm":
        return compose(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv)

    def is_even(self) -> bool:
        return perm_parity(self) is Parity.EVEN

    def __repr__(self) -> str:
        cycs = [c for c in cycles_of(self) if len(c) > 1]
        if not cycs:
            return f"Perm(id@{self.degree})"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)


def compose(a: Perm, b: Perm) -> Perm:
    """a after b: (a*b)(x) = a(b(x))."""
    if a.degree != b.degree:
        raise ValueError(f"degree mismatch: {a.degree} vs {b.degree}")
    ai = a.images
    return Perm(tuple(ai[x] for x in b.images))


def inverse(a: Perm) -> Perm:
    return a.inverse()


def conjugate(x: Perm, g: Perm) -> Perm:
    """g x g^-1, which relabels every cycle of x through g."""
    if x.degree != g.degree:
        raise ValueError(f"degree mismatch: {x.degree} vs {g.degree}")
    out = [0] * x.degree
    gi = g.images
    xi = x.images
    for j in range(x.degree):
        out[gi[j]] = gi[xi[j]]
    return Perm(out)


def _cycle_lengths(images: Sequence[int]) -> tuple[int, ...]:
    n = len(images)
    seen = bytearray(n)
    lens = []
    for i in range(n):
        if not seen[i]:
            seen[i] = 1
            length = 1
            j = images[i]
            while j != i:
                seen[j] = 1
                length += 1
                j = images[j]
            lens.append(length)
    lens.sort(reverse=True)
    return tuple(lens)


def cycles_of(a: Perm) -> list[list[int]]:
    """Disjoint cycles (0-indexed), each starting at its least point."""
    images = a.images
    n = len(images)
    seen = bytearray(n)
    out = []
    for i in range(n):
        if not seen[i]:
            seen[i] = 1
            cyc = [i]
            j = images[i]
            while j != i:
                seen[j] = 1
                cyc.append(j)
                j = images[j]
            out.append(cyc)
    return out


def cycle_type_of(a: Perm) -> CycleType:
    """Multiset of orbit lengths, fixed points included as parts of size 1."""
    return CycleType(_cycle_lengths(a.images))


def perm_parity(a: Perm) -> Parity:
    return Parity.ODD if _parity_of_images(a.images) else Parity.EVEN


def _parity_of_images(images: Sequence[int]) -> int:
    # 0 for even, 1 for odd
    return (len(images) - len(_cycle_lengths(images))) & 1


class GeneratedGroup:
    """A fully materialized permutation group with deterministic element order."""

    __slots__ = ("degree", "generators", "_elements")

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: tuple[bytes, ...]):
        self.degree = degree
        self.generators = generators
        self._elements = elements

    @property
    def order(self) -> int:
        return len(self._elements)

    def element_images(self) -> tuple[bytes, ...]:
        """Raw image arrays in discovery order; identity first."""
        return self._elements

    def elements(self) -> Iterator[Perm]:
        for eb in self._elements:
            yield Perm(eb)

    def all_even(self) -> bool:
        return all(_parity_of_images(eb) == 0 for eb in self.generators_images())

    def generators_images(self) -> list[bytes]:
        return [bytes(g.images) for g in self.generators]

    def __repr__(self) -> str:
        return f"GeneratedGroup(degree={self.degree}, order={self.order})"


def closure(degree: int, gens: Sequence[Perm], cap: int = DEFAULT_CLOSURE_CAP) -> GeneratedGroup:
    """Dimino's closure of the generators; raises ClosureCapExceeded past cap.

    H = <gens[:i]> grows to <gens[:i+1]> by left cosets x*H. A generator s
    sends the coset of r to the coset of s*r, so the set is consulted once
    per coset and generator, and each new coset is one translate per element
    of H. Same generators always produce the same element order, identity first.
    """
    if degree > 255:
        raise ValueError("degrees above 255 are out of scope")
    for g in gens:
        if g.degree != degree:
            raise ValueError(f"generator degree {g.degree} != {degree}")
    pad = bytes(range(degree, 256))
    tables = [bytes(g.images) + pad for g in gens]
    order = [bytes(range(degree))]
    seen = set(order)
    for i in range(len(tables)):
        sub, reps = order[:], order[:1]
        for r in reps:
            for t in tables[: i + 1]:
                x = r.translate(t)
                if x not in seen:
                    if len(order) + len(sub) > cap:
                        raise ClosureCapExceeded(
                            f"closure exceeds cap {cap} (degree {degree}, {len(gens)} generators)"
                        )
                    coset = list(map(bytes.translate, sub, repeat(x + pad)))
                    seen.update(coset)
                    order += coset
                    reps.append(x)
    return GeneratedGroup(degree, tuple(gens), tuple(order))


def _least_points(degree: int, elements: list[bytes]) -> bytearray:
    """Flags on the points: 1 where the point is least in its orbit under the group listed by elements."""
    least, placed = bytearray(degree), set()
    for p in range(degree):
        if p not in placed:
            least[p] = 1
            placed.update(map(itemgetter(p), elements))
    return least


def _two_point_slice(degree: int, gens: Sequence[Perm], order: int) -> list[bytes]:
    """Elements of G = <gens>, of the given order, among which lies a conjugate of every element.

    The orbit 0^G comes with a transversal, u_r(0) = r, and Schreier's lemma
    generates G_0, the stabiliser of 0, by the u_s(p)^-1 s u_p. G_0 is closed
    under the cap order // |0^G| and must give |0^G| * |G_0| == order; else
    ClosureCapExceeded or ValueError. Conjugating e by h in G_0 sends e(0) to
    h(e(0)), so only the cosets u_r G_0 with r least in its G_0-orbit are kept.
    In coset r, let q = r, or q = 1 if r = 0: conjugating by h in G_{0,q}
    keeps e(0) and sends e(q) to h(e(q)), so only the e with e(q) least in
    its G_{0,q}-orbit are kept. Conjugation keeps cycle types, and A_n
    classes when G is all even.
    """
    pad = bytes(range(degree, 256))
    tables = [bytes(g.images) + pad for g in gens]
    ident = bytes(range(degree))
    reps, todo = {0: ident}, [0]
    for p in todo:
        for t in tables:
            if t[p] not in reps:
                reps[t[p]] = reps[p].translate(t)
                todo.append(t[p])
    inverses = {r: bytes.maketrans(u, ident) for r, u in reps.items()}
    schreier = {u.translate(t).translate(inverses[t[p]]) for p, u in reps.items() for t in tables}
    schreier.discard(ident)
    stab = closure(degree, [Perm(x) for x in sorted(schreier)], order // len(reps)).element_images()
    if len(reps) * len(stab) != order:
        raise ValueError(f"closure produced order {len(reps) * len(stab)}, expected {order}")
    least = _least_points(degree, stab)
    out = []
    for r in sorted(reps):
        if not least[r]:
            continue
        q = r or 1
        if q == degree:  # degree 1: G is trivial
            out += stab
            continue
        least_q = _least_points(degree, [h for h in stab if h[q] == q])
        u = reps[r]
        keep, table = bytes(least_q[u[p]] for p in range(degree)), u + pad
        out += [h.translate(table) for h in stab if keep[h[q]]]
    return out


def _raw_classes(elements: list[bytes]):
    """The spectrum read off a group's two-point slice and, if every type is even, its A_n classes, else None.

    Types are descending cycle lengths and A_n classes are (parts, split tag).
    One pass finds every element's cycle lengths. A type that does not split
    is one class. The split types are looked up in the slice, which is left
    once each has shown both tags.
    """
    lengths = list(map(_cycle_lengths, elements))
    types = frozenset(lengths)
    if not all(map(_is_even, types)):
        return types, None
    open_types = {t for t in types if _splits(t)}
    classes = {(t, SplitTag.NOT_SPLIT) for t in types - open_types}
    for lens, eb in zip(lengths, elements) if open_types else ():
        if lens in open_types:
            classes.add((lens, _split_tag_of_images(eb)))
            if (lens, SplitTag.PLUS) in classes and (lens, SplitTag.MINUS) in classes:
                open_types.remove(lens)
                if not open_types:
                    break
    return types, frozenset(classes)


def type_spectrum(g: GeneratedGroup) -> frozenset[CycleType]:
    """The set of cycle types realized by elements of the group."""
    lengths = set(map(_cycle_lengths, _two_point_slice(g.degree, g.generators, g.order)))
    return frozenset(map(CycleType, lengths))


def canonical_split_rep(t: CycleType) -> Perm:
    """The PLUS representative of a split type: cycles filled with 1..n in order,
    longest cycle first."""
    if not is_split(t):
        raise ValueError(f"type {t} does not split")
    images = list(range(t.n))
    base = 0
    for length in t.parts:
        for i in range(length):
            images[base + i] = base + (i + 1) % length
        base += length
    return Perm(images)


def _split_tag_of_images(images: Sequence[int]) -> SplitTag:
    # Align the canonical representative's cycles with this element's cycles;
    # the aligning permutation's parity is well defined because all parts are
    # distinct and odd, so the centralizer is even.
    cycles = sorted(cycles_of(Perm(images)), key=len, reverse=True)
    target = [p for cyc in cycles for p in cyc]
    return SplitTag.PLUS if _parity_of_images(target) == 0 else SplitTag.MINUS


def split_class_of(x: Perm) -> ClassId:
    """Which of the two A_n classes of its (split) type x belongs to.

    The canonical representative gets PLUS; its conjugate by the transposition
    (1 2) gets MINUS.
    """
    t = cycle_type_of(x)
    if not is_split(t):
        raise ValueError(f"type {t} does not split")
    return ClassId(t, _split_tag_of_images(x.images))


def alt_class_coverage(g: GeneratedGroup) -> frozenset[ClassId]:
    """All A_n classes met by a group of even permutations.

    Raises if a generator is odd; intersect with the alternating group first.
    Reads the two-point slice: conjugating by the even G_0 keeps A_n classes.
    """
    if not g.all_even():
        raise ValueError("group contains odd permutations; intersect with A_n first")
    _, classes = _raw_classes(_two_point_slice(g.degree, g.generators, g.order))
    return frozenset(ClassId(CycleType(t), tag) for t, tag in classes)


def sym_gens(n: int) -> list[Perm]:
    """Standard generators of S_n: a transposition and an n-cycle."""
    if n < 2:
        return [Perm.identity(max(n, 1))]
    gens = [Perm.from_cycles(n, [[1, 2]])]
    if n > 2:
        gens.append(Perm.from_cycles(n, [list(range(1, n + 1))]))
    return gens


def direct_product_gens(n: int, k: int) -> list[Perm]:
    """Generators of the stabilizer of {1..k}, acting as S_k x S_{n-k}."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= {n - 1}, got {k}")
    gens = []
    if k >= 2:
        gens.append(Perm.from_cycles(n, [[1, 2]]))
        if k > 2:
            gens.append(Perm.from_cycles(n, [list(range(1, k + 1))]))
    if n - k >= 2:
        gens.append(Perm.from_cycles(n, [[k + 1, k + 2]]))
        if n - k > 2:
            gens.append(Perm.from_cycles(n, [list(range(k + 1, n + 1))]))
    return gens


def wreath_gens(n: int, b: int, c: int) -> list[Perm]:
    """Generators of S_b wr S_c preserving the blocks {1..b}, {b+1..2b}, ..."""
    if b < 2 or c < 2 or b * c != n:
        raise ValueError(f"need b, c >= 2 with b*c == {n}, got b={b}, c={c}")
    gens = [Perm.from_cycles(n, [[1, 2]])]
    if b > 2:
        gens.append(Perm.from_cycles(n, [list(range(1, b + 1))]))
    # swap first two blocks
    gens.append(Perm([(i + b) % (2 * b) if i < 2 * b else i for i in range(n)]))
    if c > 2:
        # cycle all blocks
        gens.append(Perm([(i + b) % n for i in range(n)]))
    return gens
