"""Mod-2 polynomial algebra underlying the homology of an infinite loop space.

The homology of each supported space is polynomial over GF(2) on generators
Q^I(b), one for every base class b and admissible sequence I of excess
exceeding dim b.  Over the unit-loop model the component classes [k] enter as
an extra group-like factor; a monomial carries them as an integer
``translation`` exponent, so [j]*[k] = [j+k] and the basepoint [0] is the unit.

Elements are formal GF(2) sums, stored as frozensets of monomials; addition is
symmetric difference.  Everything is immutable and hashable.

Inside the engine a monomial is a packed int instead (see Packing below): the
operation layers memoize on those, and Monomial objects are built only at the
boundary, for printing, JSON and the public functions; a printed basis needs
none (basis_lines).  Each space's
generators are listed once per dimension (_generators_of), and a basis walk
interns them in that order before it runs; a tensor of two codes is one int
too (_pair).  The operations reach products through Packing.split and
Packing.peel, and Q^I(b) through Packing.admissible_code.  A sum of codes or
of tensors is multiplied by one loop, _mul_sets, and squared term by term by
another, _square_set; the two kinds differ only in the constants of CODES and
PAIRS.  Packing.root splits off a monomial's square part.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

from .errors import NotASquare, PackedFieldOverflow, SpaceMismatch, UnsupportedOperand
from .seqcore import (
    Applied,
    BaseClass,
    UpperSeq,
    _Frozen,
    _Ordered,
    _lower_fold,
    _set,
    enumerate_admissible,
    excess,
    upper,
)
from .spaces import SpaceDesc


class Generator(Applied):
    """Polynomial generator Q^I(b), admissible I with excess(I) > dim b.

    The empty sequence stands for the base class itself.  On the unit-loop
    base that role is played by translations, so there the sequence must be
    nonempty.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if excess(self.seq) <= self.base.dimension:
            raise ValueError(
                f"excess {excess(self.seq)} does not exceed base dimension "
                f"{self.base.dimension}; not a polynomial generator"
            )
        if self.base.kind == "unit_loop" and not self.seq:
            raise ValueError("the unit-loop base class itself is the translation [1]")

    @property
    def charge(self) -> int:
        """Component index of the underlying class; each Q doubles it."""
        return 2 ** len(self.seq) if self.base.kind == "unit_loop" else 0

    def __str__(self) -> str:
        head = self.base.head
        if not self.seq:
            return head
        body = ",".join(map(str, self.seq.entries))
        ops = f"Q^{body}" if len(self.seq) == 1 else f"Q^({body})"
        # [1] is written against its operations: Q^3[1], Q^(2,1)[1]
        return f"{ops}{head}" if head[0] == "[" else f"{ops} {head}"


class Monomial(_Ordered):
    """Product of generator powers times a translation [k]."""

    #: _hash is set by Packing.decode on the shared monomials it builds,
    #: which the boundary's term sets hash over and over; it is not a field,
    #: so it does not travel with a pickle, as it is only valid in the
    #: process that computed it.
    __slots__ = ("factors", "translation", "_hash")
    _fields = ("factors", "translation")

    def __init__(
        self, factors: tuple[tuple[Generator, int], ...] = (), translation: int = 0
    ) -> None:
        _set(self, "factors", factors)
        _set(self, "translation", translation)
        _set(self, "_hash", None)
        self.__post_init__()

    # term sets hash the shared decoded monomials over and over: keep the cache
    def __hash__(self) -> int:
        h = self._hash
        return hash(self._key(self)) if h is None else h

    def __post_init__(self) -> None:
        gens = [g for g, _ in self.factors]
        if gens != sorted(gens):
            raise ValueError("factors must be sorted by generator")
        if len(set(gens)) != len(gens):
            raise ValueError("repeated generator; merge exponents instead")
        if any(e < 1 for _, e in self.factors):
            raise ValueError("exponents must be >= 1")

    @property
    def dimension(self) -> int:
        return sum(e * g.dimension for g, e in self.factors)

    @property
    def charge(self) -> int:
        return self.translation + sum(e * g.charge for g, e in self.factors)

    @property
    def gen_length(self) -> int:
        """Number of generator factors counted with multiplicity."""
        return sum(e for _, e in self.factors)

    def is_square(self) -> bool:
        return self.translation % 2 == 0 and all(e % 2 == 0 for _, e in self.factors)

    def sqrt(self) -> Monomial:
        if not self.is_square():
            raise NotASquare(f"{self} is not a square monomial")
        return Monomial(
            tuple((g, e // 2) for g, e in self.factors), self.translation // 2
        )

    def square(self) -> Monomial:
        return Monomial(
            tuple((g, 2 * e) for g, e in self.factors), 2 * self.translation
        )

    def __str__(self) -> str:
        # the factors are ascending (__post_init__), and print highest first
        return _monomial_text(
            [_factor_text(g, e) for g, e in reversed(self.factors)], self.translation
        )


def _factor_text(g: Generator, e: int) -> str:
    """How a monomial prints g^e: a bare base class needs no parentheses."""
    text = str(g)
    if e == 1:
        return text
    return f"({text})^{e}" if g.seq else f"{text}^{e}"


def _monomial_text(parts, translation: int) -> str:
    """A monomial's text from its factors' texts, highest generator first."""
    text = " ".join(parts)
    if not text:
        return f"[{translation}]" if translation else "1"
    return f"{text} * [{translation}]" if translation else text


UNIT_MONOMIAL = Monomial()


def translation_monomial(k: int) -> Monomial:
    return Monomial((), k)


def generator_monomial(g: Generator, exponent: int = 1, translation: int = 0) -> Monomial:
    return Monomial(((g, exponent),), translation)


def canonical_key(m: Monomial) -> tuple:
    """Sort key for printed bases: fewest generator factors first.

    Single operations come before products and powers, so Q^2 x_1 precedes
    x_1^3 in degree three.  Ties fall back to the structural ordering.
    """
    return (m.gen_length, m)


class Element(_Frozen):
    """GF(2) sum of monomials in the homology of one space."""

    __slots__ = _fields = ("space", "terms")

    def __init__(self, space: SpaceDesc, terms: frozenset[Monomial]) -> None:
        _set(self, "space", space)
        _set(self, "terms", terms)

    def __add__(self, other: Element) -> Element:
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space.label} vs {other.space.label}")
        return Element(self.space, self.terms ^ other.terms)

    def __mul__(self, other: Element) -> Element:
        if self.space != other.space:
            raise SpaceMismatch(f"{self.space.label} vs {other.space.label}")
        p = _packing(self.space)
        product = _mul_sets(p.encode_set(self.terms), p.encode_set(other.terms))
        return Element(self.space, p.decode_set(product))

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def dimension(self) -> int | None:
        """Common dimension of the terms; None when zero, error when mixed."""
        dims = {m.dimension for m in self.terms}
        if not dims:
            return None
        if len(dims) > 1:
            raise ValueError(f"element is not homogeneous: dimensions {sorted(dims)}")
        return dims.pop()

    @property
    def charge(self) -> int | None:
        charges = {m.charge for m in self.terms}
        if not charges:
            return None
        if len(charges) > 1:
            raise ValueError(f"element spreads over components {sorted(charges)}")
        return charges.pop()

    def sorted_terms(self) -> list[Monomial]:
        return sorted(self.terms, key=canonical_key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(str(m) for m in self.sorted_terms())

    def is_square(self) -> bool:
        return bool(self.terms) and all(m.is_square() for m in self.terms)

    def sqrt(self) -> Element:
        if not all(m.is_square() for m in self.terms):
            raise NotASquare(f"{self} is not a square")
        return Element(self.space, frozenset(m.sqrt() for m in self.terms))

    def square(self) -> Element:
        # Frobenius is additive mod 2, so squaring maps term sets bijectively.
        return Element(self.space, frozenset(m.square() for m in self.terms))


def zero(space: SpaceDesc) -> Element:
    return Element(space, frozenset())


def one(space: SpaceDesc) -> Element:
    return Element(space, frozenset({UNIT_MONOMIAL}))


def element_of(space: SpaceDesc, *monomials: Monomial) -> Element:
    acc: set[Monomial] = set()
    for m in monomials:
        _check_monomial(space, m)
        acc ^= {m}
    return Element(space, frozenset(acc))


def _check_monomial(space: SpaceDesc, m: Monomial) -> None:
    if m.translation and not space.has_charge():
        raise SpaceMismatch(f"{space.label} has no translation classes")
    bases = set(space.base_classes())
    for g, _ in m.factors:
        if g.base not in bases:
            raise SpaceMismatch(f"generator base {g.base} does not live in {space.label}")


def translation_class(space: SpaceDesc, k: int) -> Element:
    return element_of(space, translation_monomial(k))


def base_element(space: SpaceDesc, base: BaseClass) -> Element:
    """The base class b itself as an element ([1] on the unit-loop model)."""
    if base.kind == "unit_loop":
        return translation_class(space, 1)
    return element_of(space, generator_monomial(Generator(base, upper())))


def split_decomposable(e: Element) -> tuple[Element, Element]:
    """Split into (single-generator part, everything else).

    The second component holds products of two or more generators together
    with any pure-translation terms.
    """
    linear = frozenset(m for m in e.terms if m.gen_length == 1)
    return Element(e.space, linear), Element(e.space, e.terms - linear)


@lru_cache(maxsize=None)
def _generators_of(space: SpaceDesc, dim: int) -> tuple[Generator, ...]:
    """The polynomial generators of one dimension, in generator order.

    The unit-loop base [1] has dimension 0, so starting at dimension 1 skips
    its empty sequence, which is the translation [1] rather than a generator.
    """
    if dim < 1:
        return ()
    return tuple(sorted(
        Generator(base, seq)
        for base in space.base_classes()
        for seq in enumerate_admissible(dim, base.dimension, base.dimension)
    ))


def generators_up_to(space: SpaceDesc, max_dim: int) -> list[Generator]:
    """All polynomial generators of dimension <= max_dim, sorted by dimension."""
    return [g for d in range(1, max_dim + 1) for g in _generators_of(space, d)]


def single_generators(space: SpaceDesc, degree: int) -> list[Monomial]:
    """The monomials Q^I(b) of one degree, sorted; on the unit-loop model each
    is translated back to charge zero."""
    return [generator_monomial(g, 1, -g.charge) for g in _generators_of(space, degree)]


def _base_translation(space: SpaceDesc, charge: int | None) -> int:
    """The translation of a basis monomial before its factors' charges come off.

    A basis of the unit-loop model lists one component, charge 0 by default;
    the other models have one component, and a charge must not be given.
    """
    if space.has_charge():
        return 0 if charge is None else charge
    if charge is not None:
        raise ValueError(f"{space.label} has a single component; omit charge")
    return 0


def _translation_step(g: Generator, e: int) -> int:
    """What the factor g^e takes off a basis monomial's translation."""
    return -e * g.charge


def _basis_walk(
    space: SpaceDesc, degrees: range, acc, step, leaf, item=lambda g, e: (g, e)
) -> list[list]:
    """The basis of each degree in the range (none below 1) in canonical
    order, one leaf(stack, acc) per monomial.

    One pre-order depth-first pass takes generators in generator order and
    exponents ascending, on one stack shared by every node below a factor, so
    each degree's factor lists come out in lexicographic (Monomial) order.  A
    node of a wanted degree goes to the bucket of its degree and gen_length,
    and a degree's buckets are joined shortest first: canonical_key's order,
    with no sort.  A branch stops where no wanted degree lies ahead, so a
    one-degree walk visits only its own monomials.  The stack holds item(g, e)
    per factor g^e, ascending; a node's acc is acc plus step(g, e) over its
    factors.  Both are computed once per (g, e) and walk.
    """
    top = max([0, *degrees])
    wanted = sum(1 << d for d in degrees if d > 0)
    gens = sorted(generators_up_to(space, top))
    dims = [g.dimension for g in gens]
    pairs = [
        [(item(g, e), e, step(g, e)) for e in range(1, top // d + 1)]
        for g, d in zip(gens, dims)
    ]
    # fits[r]: the indices of the generators of dimension at most r;
    # bit r of ends[i]: r is a sum of dimensions of generators i, i + 1, ...
    fits = [[i for i, d in enumerate(dims) if d <= r] for r in range(top + 1)]
    ends = [1] * (len(gens) + 1)
    for i in reversed(range(len(gens))):
        for e in range(len(pairs[i]) + 1):
            ends[i] |= ends[i + 1] << e * dims[i]
    buckets = [[[] for _ in range(d + 1)] for d in range(top + 1)]
    stack: list = []

    def extend(first: int, total: int, length: int, acc) -> None:
        candidates = fits[top - total]
        for i in candidates[bisect_left(candidates, first):]:
            d, tails = dims[i], ends[i + 1]
            reached = total
            for x, e, s in pairs[i]:
                reached += d
                if reached > top:
                    break
                # bit r: reached + r is wanted and a sum of the later generators
                ahead = wanted >> reached & tails
                if ahead:
                    stack.append(x)
                    if ahead & 1:
                        buckets[reached][length + e].append(leaf(stack, acc + s))
                    if ahead > 1:
                        extend(i + 1, reached, length + e, acc + s)
                    stack.pop()

    extend(0, 0, 0, acc)
    return [[x for b in buckets[d] for x in b] if d > 0 else [] for d in degrees]


def basis_enumerate(space: SpaceDesc, degree: int, charge: int | None = None) -> list[Monomial]:
    """Sorted monomial basis of the given degree (reduced: degree 0 is empty).

    For the unit-loop model the basis of one component is listed; charge
    defaults to 0 there and must be omitted elsewhere.  The engine takes the
    same basis as packed codes from _basis_codes, the basis command as text
    from basis_lines.
    """
    return _basis_walk(
        space, range(degree, degree + 1), _base_translation(space, charge), _translation_step,
        lambda factors, t: Monomial(tuple(factors), t),
    )[0]


def basis_lines(space: SpaceDesc, degree: int, charge: int | None = None) -> list[str]:
    """[str(m) for m in basis_enumerate(space, degree, charge)], with no
    Monomial built: each factor's text is formatted once per walk, and each
    leaf joins its stack's texts highest generator first."""
    return _basis_walk(
        space, range(degree, degree + 1), _base_translation(space, charge), _translation_step,
        lambda texts, t: _monomial_text(reversed(texts), t), _factor_text,
    )[0]


# ---------------------------------------------------------------------------
# Tensor powers, used by the coproduct layer.


class TensorElement(_Frozen):
    """GF(2) sum of arity-fold tensors of monomials over one space."""

    __slots__ = _fields = ("space", "arity", "terms")

    def __init__(
        self, space: SpaceDesc, arity: int, terms: frozenset[tuple[Monomial, ...]]
    ) -> None:
        _set(self, "space", space)
        _set(self, "arity", arity)
        _set(self, "terms", terms)

    def __add__(self, other: TensorElement) -> TensorElement:
        if self.space != other.space or self.arity != other.arity:
            raise SpaceMismatch("tensor shapes differ")
        return TensorElement(self.space, self.arity, self.terms ^ other.terms)

    def __mul__(self, other: TensorElement) -> TensorElement:
        if self.space != other.space or self.arity != other.arity:
            raise SpaceMismatch("tensor shapes differ")
        if self.arity != 2:
            raise UnsupportedOperand("tensors are multiplied in arity 2")
        p = _packing(self.space)
        return p.tensor(_mul_sets(p.encode_pairs(self.terms), p.encode_pairs(other.terms), PAIRS))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            " (x) ".join(str(m) for m in t) for t in sorted(self.terms)
        )


def expand_slot(te: TensorElement, slot: int, fn) -> TensorElement:
    """Replace slot by fn(monomial), an arity-k TensorElement, splicing it in."""
    acc: set[tuple[Monomial, ...]] = set()
    new_arity = None
    for t in te.terms:
        image = fn(t[slot])
        new_arity = te.arity - 1 + image.arity
        for repl in image.terms:
            acc ^= {t[:slot] + repl + t[slot + 1 :]}
    if new_arity is None:
        new_arity = te.arity + 1  # empty sum; arity is conventional
    return TensorElement(te.space, new_arity, frozenset(acc))


# ---------------------------------------------------------------------------
# Packed monomials.
#
# The operation layers (dlops, steenrod, hopf) and the linear-algebra
# consumers work on monomials packed into one Python int, the packed exponent
# vectors of Monagan and Pearce (CASC 2007).  From the low end a code holds
#
#   the translation k, as ONE_CODE + k        (TRANSLATION_BITS),
#   the dimension of the monomial             (DEGREE_BITS),
#   one byte per generator, its exponent      (generator i at bit
#                                              GENERATOR_SHIFT + 8 i).
#
# Each space interns its generators to small indices: a basis walk interns
# every generator of its degree in generators_up_to's order, and a generator
# an operation makes outside the walked degrees is interned when first seen.
# Every field is additive, so a product is a + b - ONE_CODE and a square
# 2 a - ONE_CODE, and the dimension is read off without unpacking.
#
# A tensor x (x) y is a monomial in twice the generators, so it packs the
# same way, into one int (a Pair) holding each field of x next to the same
# field of y: the two translations, the two dimensions, then per generator the
# exponent byte of x and that of y.  A product of tensors is a + b - PAIRS.one,
# and the left dimension, which the coproduct's cut reads, is one field.
#
# The top bit of every field is a guard that valid codes keep clear.  Adding
# two valid codes can set a guard bit but never carry into the neighbouring
# field, so every product is checked against the guards of its kind (CODES,
# PAIRS), and an exponent, dimension or translation outside its field raises
# PackedFieldOverflow instead of turning into a wrong monomial.  An exponent is
# at most the monomial's dimension, as every generator has positive dimension.

TRANSLATION_BITS = 32
DEGREE_BITS = 16
EXPONENT_BITS = 8  # one byte, which _factors reads with int.to_bytes
GENERATOR_SHIFT = TRANSLATION_BITS + DEGREE_BITS
#: Code of the unit monomial, and the bias of the translation field.
ONE_CODE = 1 << (TRANSLATION_BITS - 2)
MAX_EXPONENT = (1 << (EXPONENT_BITS - 1)) - 1
MAX_DEGREE = (1 << (DEGREE_BITS - 1)) - 1
MAX_GENERATORS = 4096
_TRANSLATION_MASK = (1 << TRANSLATION_BITS) - 1
_DEGREE_MASK = (1 << DEGREE_BITS) - 1
_DEGREE_FIELD = _DEGREE_MASK << TRANSLATION_BITS
_GUARDS = (
    1 << (TRANSLATION_BITS - 1)
    | 1 << (GENERATOR_SHIFT - 1)
    | ((1 << EXPONENT_BITS * MAX_GENERATORS) - 1) // 0xFF * 0x80 << GENERATOR_SHIFT
)

#: The low seven bits of every exponent byte, with the exponents at bit 0.
_HALF_EXPONENT_MASK = ((1 << EXPONENT_BITS * MAX_GENERATORS) - 1) // 0xFF * 0x7F


def _overflow(code: int, what: str = "monomial") -> PackedFieldOverflow:
    return PackedFieldOverflow(f"packed {what} {code:#x} left one of its fields")


def _times(a: int, b: int) -> int:
    c = a + b - ONE_CODE
    if c & _GUARDS:
        raise _overflow(c)
    return c


def _translation_code(k: int) -> int:
    """Code of the translation monomial [k]."""
    if not -ONE_CODE <= k < ONE_CODE:
        raise PackedFieldOverflow(f"translation [{k}] does not fit its packed field")
    return ONE_CODE + k


def _translation(code: int) -> int:
    return (code & _TRANSLATION_MASK) - ONE_CODE


def _degree(code: int) -> int:
    return code >> TRANSLATION_BITS & _DEGREE_MASK


def _exponents(code: int) -> bytes:
    """The exponent bytes of a code, generator 0 first."""
    gens = code >> GENERATOR_SHIFT
    return gens.to_bytes((gens.bit_length() + 7) // 8, "little")


def _factors(code: int) -> list[tuple[int, int]]:
    """(generator index, exponent) of every factor of a code."""
    return [(i, e) for i, e in enumerate(_exponents(code)) if e]


def _generator_index(code: int) -> int | None:
    """i when the code is generator i to the first power, times any translation;
    None otherwise.  Its exponent field is then one bit, the low bit of a byte."""
    gens = code >> GENERATOR_SHIFT
    i, offset = divmod(gens.bit_length() - 1, EXPONENT_BITS)
    return None if gens & (gens - 1) or offset else i


#: A tensor x (x) y of two packed codes, as one int: see _pair.
Pair = int

PAIR_SHIFT = 2 * GENERATOR_SHIFT  # where the exponent bytes of a Pair start


def _pair(x: int, y: int) -> Pair:
    """x (x) y: from the low end the translations of x and y, their
    dimensions, and per generator i the exponent byte of x, then of y."""
    xs, ys = _exponents(x), _exponents(y)
    buf = bytearray(2 * max(len(xs), len(ys)))
    buf[0 : 2 * len(xs) : 2], buf[1 : 2 * len(ys) : 2] = xs, ys
    return (
        x & _TRANSLATION_MASK | (y & _TRANSLATION_MASK) << TRANSLATION_BITS
        | (x & _DEGREE_FIELD) << TRANSLATION_BITS | (y & _DEGREE_FIELD) << GENERATOR_SHIFT
        | int.from_bytes(buf, "little") << PAIR_SHIFT
    )


def _slots(t: Pair) -> tuple[int, int]:
    """(x, y) of the tensor t = x (x) y."""
    buf = (t >> PAIR_SHIFT).to_bytes(t.bit_length() // 8 + 1, "little")
    xs, ys = (int.from_bytes(buf[i::2], "little") << GENERATOR_SHIFT for i in (0, 1))
    return (
        t & _TRANSLATION_MASK | t >> TRANSLATION_BITS & _DEGREE_FIELD | xs,
        t >> TRANSLATION_BITS & _TRANSLATION_MASK | t >> GENERATOR_SHIFT & _DEGREE_FIELD | ys,
    )


_EMPTY: frozenset = frozenset()


class _Sum(NamedTuple):
    """The constants of one kind of packed sum: packed codes or packed tensors."""

    one: int  #: the unit, 1 or 1 (x) 1
    guards: int  #: the guard bits, which a valid term keeps clear
    cut: int  #: the degree field that a cut at k reads: the left slot's for a tensor
    what: str  #: the word an overflow names


CODES = _Sum(ONE_CODE, _GUARDS, _DEGREE_FIELD, "monomial")
PAIRS = _Sum(_pair(ONE_CODE, ONE_CODE), _pair(_GUARDS, _GUARDS), _pair(_DEGREE_FIELD, 0), "tensor")


def _mul_sets(a, b, kind: _Sum = CODES, k: int = MAX_DEGREE) -> frozenset[int]:
    """GF(2) product of two sums of packed terms of one kind.

    Only the products whose cut field (the left slot's degree) is at most k
    are kept; the default keeps them all.
    """
    one, guards, cut, what = kind
    bound = k * (cut & -cut)  # k, placed in the cut field
    acc: set[int] = set()
    for x in a:
        x -= one
        for y in b:
            c = x + y
            if c & guards:
                raise _overflow(c, what)
            if c & cut > bound:
                continue
            if c in acc:
                acc.remove(c)
            else:
                acc.add(c)
    return frozenset(acc)


def _square_set(terms, kind: _Sum = CODES) -> frozenset[int]:
    """The square of a sum of packed terms: each term doubled, guarded as
    _mul_sets guards a product.  Squaring is additive mod 2 and injective, so
    no term cancels."""
    out = frozenset(2 * t - kind.one for t in terms)
    for c in out:
        if c & kind.guards:
            raise _overflow(c, kind.what)
    return out


class Packing:
    """Packed-int codes for the monomials of one space.

    _basis_codes interns the generators of its degree in table order, by
    dimension; index interns any other generator when it is first seen, so
    a single high-degree query interns only what it uses.  Both directions
    are memoized, so equal codes decode to one shared Monomial, whose hash is
    then computed once.
    """

    def __init__(self, space: SpaceDesc) -> None:
        self.space = space
        self.gens: list[Generator] = []
        #: units[i] is the code increment of one factor of generator i
        self.units: list[int] = []
        self._index: dict[Generator, int] = {}
        self._encoded: dict[Monomial, int] = {}
        self._decoded: dict[int, Monomial] = {}

    def index(self, g: Generator) -> int:
        i = self._index.get(g)
        if i is None:
            i = len(self.gens)
            if i == MAX_GENERATORS:
                raise PackedFieldOverflow(f"{self.space.label} has over {i} generators")
            if g.dimension > MAX_DEGREE:
                raise PackedFieldOverflow(f"{g} does not fit the packed degree field")
            self._index[g] = i
            self.gens.append(g)
            self.units.append(
                g.dimension << TRANSLATION_BITS | 1 << (GENERATOR_SHIFT + EXPONENT_BITS * i)
            )
        return i

    def generator_code(self, g: Generator, exponent: int = 1) -> int:
        if exponent > MAX_EXPONENT:
            raise PackedFieldOverflow(f"exponent {exponent} of {g} does not fit its packed field")
        return ONE_CODE + exponent * self.units[self.index(g)]

    def split(self, code: int) -> tuple[int | None, int, int]:
        """(i, u, v) with code = u v, the factor u split off for the Cartan formula.

        u is the translation [k] when the code has one, and then i is None; a
        pure translation, the unit [0] included, splits as [k] times 1.
        Otherwise u is one factor of the highest-indexed generator i.  Basis
        walks index generators by dimension, so v keeps the small ones, and
        the Cartan remainders of one degree are few and shared.
        """
        gens = code >> GENERATOR_SHIFT
        t = code & _TRANSLATION_MASK
        if t != ONE_CODE or not gens:
            return None, t, code - t + ONE_CODE
        i = (gens.bit_length() - 1) // EXPONENT_BITS
        unit = self.units[i]
        return i, ONE_CODE + unit, code - unit

    def root(self, code: int) -> tuple[int, int]:
        """(w, r) with code = w^2 r: w takes half of each exponent, and r keeps
        the translation and the odd exponent bits.  w is 1 (ONE_CODE) when no
        exponent is 2 or more."""
        # byte i of halves is exponent i shifted down, less the bit that
        # exponent i + 1 shifted in; visit its nonzero bytes, highest first
        halves = code >> (GENERATOR_SHIFT + 1) & _HALF_EXPONENT_MASK
        w = ONE_CODE
        while halves:
            i = (halves.bit_length() - 1) // EXPONENT_BITS
            e = halves >> EXPONENT_BITS * i
            w += e * self.units[i]
            halves ^= e << EXPONENT_BITS * i
        return w, code - 2 * (w - ONE_CODE)

    def peel(self, i: int) -> tuple[int, int]:
        """(a, z) with generator i, which must carry an operation, equal to Q^a z."""
        g = self.gens[i]
        return g.seq.entries[0], self.admissible_code(g.seq.entries[1:], g.base)

    def admissible_code(self, entries: tuple[int, ...], base: BaseClass) -> int | None:
        """The code of Q^I(base) for an admissible I, or None when it is zero.

        A negative lower index makes the composite zero, and t leading zero
        lower indices are t squarings: the code is g^(2^t), g the rest of the
        sequence on base, and [2^t] when nothing rests on the unit-loop base [1].
        """
        js = _lower_fold(entries, base.dimension)
        if js and js[0] < 0:  # lower indices are nondecreasing, so the head is the minimum
            return None
        t = 0
        while t < len(js) and js[t] == 0:
            t += 1
        if t == len(js) and base.kind == "unit_loop":
            return _translation_code(2**t)
        return self.generator_code(Generator(base, UpperSeq(entries[t:])), 2**t)

    def encode(self, m: Monomial) -> int:
        code = self._encoded.get(m)
        if code is None:
            code = _translation_code(m.translation)
            for g, e in m.factors:
                code += self.generator_code(g, e) - ONE_CODE
            if code & _GUARDS:
                raise _overflow(code)
            self._encoded[m] = code
        return code

    def decode(self, code: int) -> Monomial:
        m = self._decoded.get(code)
        if m is None:
            gens = self.gens
            factors = tuple(sorted((gens[i], e) for i, e in _factors(code)))
            m = self._decoded[code] = Monomial(factors, _translation(code))
            _set(m, "_hash", hash(m._key(m)))
        return m

    def encode_set(self, monomials) -> frozenset[int]:
        return frozenset(map(self.encode, monomials))

    def decode_set(self, codes) -> frozenset[Monomial]:
        return frozenset(map(self.decode, codes))

    def encode_pairs(self, tensors) -> frozenset[Pair]:
        return frozenset(_pair(self.encode(u), self.encode(v)) for u, v in tensors)

    def linear(self, f, monomials) -> set:
        """The xor of f(code) over the monomials' codes: f extended linearly."""
        acc: set = set()
        for m in monomials:
            acc ^= f(self.encode(m))
        return acc

    def tensor(self, pairs) -> TensorElement:
        """The arity-2 TensorElement of a sum of packed pairs."""
        terms = frozenset((self.decode(x), self.decode(y)) for x, y in map(_slots, pairs))
        return TensorElement(self.space, 2, terms)


@lru_cache(maxsize=None)
def _packing(space: SpaceDesc) -> Packing:
    return Packing(space)


def _basis_codes(space: SpaceDesc, degree: int, charge: int | None = None) -> list[int]:
    """basis_enumerate as packed codes, with no Monomial built."""
    return _code_bases(space, range(degree, degree + 1), charge)[0]


def _code_bases(space: SpaceDesc, degrees: range, charge: int | None = None) -> list[list[int]]:
    """_basis_codes of each degree in the range, summed along one walk.  The
    generators up to the top degree are interned first, in generators_up_to's
    order, so a space walked before any operation numbers them by dimension."""
    p = _packing(space)
    for g in generators_up_to(space, max([0, *degrees])):
        p.index(g)

    def step(g: Generator, e: int) -> int:
        return p.generator_code(g, e) - ONE_CODE - e * g.charge

    def leaf(factors: list, acc: int) -> int:
        if acc & _GUARDS:
            raise _overflow(acc)
        return acc

    return _basis_walk(
        space, degrees, _translation_code(_base_translation(space, charge)), step, leaf
    )


# ---------------------------------------------------------------------------
# Bitmask glue for the GF(2) linear algebra layer.


def masks_for_term_sets(term_sets) -> tuple[list[int], list]:
    """The masks of the term sets, and their union as columns, the term of
    bit i at index i, numbered when first seen.  Each set is masked as soon
    as it is read, so from an iterator one set is alive at a time.  Kernels,
    ranks and unique solves do not depend on the column order; it follows
    the sets' iteration order, which over Monomials follows PYTHONHASHSEED,
    so a caller that needs an order passes a list in that order first.
    """
    columns: dict = {}
    masks = []
    for s in term_sets:
        row = bytearray((len(columns) + len(s)) // 8 + 1)
        for t in s:
            i = columns.setdefault(t, len(columns))
            row[i >> 3] |= 1 << (i & 7)
        masks.append(int.from_bytes(row, "little"))
    return masks, list(columns)


def _picked(mask: int, items: list) -> frozenset:
    """The items whose bits are set in mask, visiting only the set bits."""
    out = []
    while mask:
        low = mask & -mask
        out.append(items[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def _element_from_codes(space: SpaceDesc, mask: int, codes: list[int]) -> Element:
    """The element of the codes picked by mask: only those codes are decoded."""
    return Element(space, _packing(space).decode_set(_picked(mask, codes)))
