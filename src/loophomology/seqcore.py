"""Operation index sequences: admissibility, excess, upper/lower conversion.

Upper indexing writes an iterated operation as Q^{i_1} ... Q^{i_s} applied to a
base class, outermost first.  Lower indexing writes Q_{j} z = Q^{j + dim z} z,
so the same composite carries a lower sequence (j_1, ..., j_s) that depends on
the dimension of the class each operation acts on.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from .errors import NegativeLowerIndex

#: Excess of the empty sequence; compares greater than any integer.
INFINITE = math.inf


def _check_entries(entries: tuple[int, ...]) -> None:
    for e in entries:
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise ValueError(f"sequence entries must be nonnegative integers, got {entries!r}")


# ---------------------------------------------------------------------------
# Immutable records.
#
# The value classes are slotted classes, not frozen dataclasses: @dataclass
# compiles its methods on import, which a one-query command line pays on every
# call.  Each class gets one C-level field key (an operator.attrgetter, built
# once per class) that equality, hashing, ordering and pickling all read.  Two
# measured hot paths keep methods of their own: _Seq's, and Monomial's hash.

_set = object.__setattr__


def _compare(op):
    """A comparison of field keys within one exact class."""
    def compare(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return op(key(self), key(other))
        return NotImplemented
    return compare


class _Frozen:
    """An immutable record, as @dataclass(frozen=True) gave one.

    A subclass lists its fields in _fields and its slots in __slots__; its
    __init__ sets each field with _set, then calls __post_init__ where it
    validates.  Records are equal and hash by _key, only within one exact class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if len(cls._fields) == 1:  # still the 1-tuple, as a dataclass hashes it
            get = operator.attrgetter(*cls._fields)
            cls._key = staticmethod(lambda record: (get(record),))
        elif cls._fields:
            cls._key = staticmethod(operator.attrgetter(*cls._fields))

    __eq__ = _compare(operator.eq)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        # rebuilt through __init__, so only the fields travel
        return self.__class__, self._key(self)


class _Ordered(_Frozen):
    """A _Frozen record ordered by its field tuple, as order=True gave."""

    __slots__ = ()
    __lt__ = _compare(operator.lt)
    __le__ = _compare(operator.le)
    __gt__ = _compare(operator.gt)
    __ge__ = _compare(operator.ge)


class _Seq(_Ordered):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...] = ()) -> None:
        _set(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_entries(self.entries)

    # hot: inside every Generator comparison (sorting is 1.7x slower through the key)
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.entries == other.entries
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.entries < other.entries
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.entries,))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


class UpperSeq(_Seq):
    """Upper-indexed sequence (i_1, ..., i_s), outermost operation first."""

    __slots__ = ()


class LowerSeq(_Seq):
    """Lower-indexed sequence (j_1, ..., j_s), outermost operation first."""

    __slots__ = ()


def upper(*entries: int) -> UpperSeq:
    return UpperSeq(tuple(entries))


def lower(*entries: int) -> LowerSeq:
    return LowerSeq(tuple(entries))


def is_admissible(seq: UpperSeq) -> bool:
    """True iff i_m <= 2 * i_{m+1} for every consecutive pair (empty: True)."""
    e = seq.entries
    return all(e[m] <= 2 * e[m + 1] for m in range(len(e) - 1))


def excess(seq: UpperSeq) -> int | float:
    """i_1 minus the sum of the remaining entries; INFINITE when empty."""
    e = seq.entries
    if not e:
        return INFINITE
    return e[0] - sum(e[1:])


def lucas_binom(n: int, k: int) -> int:
    """C(n, k) mod 2 by Lucas: 1 exactly when k's bits sit inside n's."""
    if n < 0 or k < 0 or k > n:
        return 0
    return 0 if k & (n - k) else 1


def upper_dim(seq: UpperSeq, base_dim: int) -> int:
    """Dimension of Q^{seq} applied to a class of dimension base_dim."""
    return base_dim + sum(seq.entries)


def _upper_fold(js: tuple[int, ...], base_dim: int) -> tuple[int, ...]:
    """Upper entries of lower indices js, folding dimensions innermost-out."""
    out: list[int] = []
    dim = base_dim
    for j in reversed(js):
        i = j + dim
        out.append(i)
        dim += i
    return tuple(reversed(out))


def _lower_fold(entries: tuple[int, ...], base_dim: int) -> tuple[int, ...]:
    """Lower indices of upper entries, negative ones included."""
    out: list[int] = []
    dim = base_dim
    for i in reversed(entries):
        out.append(i - dim)
        dim += i
    return tuple(reversed(out))


def lower_to_upper(seq: LowerSeq, base_dim: int) -> UpperSeq:
    """Convert lower indices to upper, folding dimensions innermost-out."""
    return UpperSeq(_upper_fold(seq.entries, base_dim))


def upper_to_lower(seq: UpperSeq, base_dim: int) -> LowerSeq:
    """Inverse of lower_to_upper.

    Raises NegativeLowerIndex when some upper entry falls below the dimension
    of the class it acts on (the composite is the zero class).
    """
    e = seq.entries
    js = _lower_fold(e, base_dim)
    for m, j in enumerate(js):
        if j < 0:
            raise NegativeLowerIndex(
                f"entry {e[m]} at position {m + 1} of {e!r} acts below the "
                f"dimension of its argument (lower index {j})"
            )
    return LowerSeq(js)


def all_entries_odd(seq: UpperSeq) -> bool:
    """True when every entry is odd (vacuously true for the empty sequence)."""
    return all(e % 2 == 1 for e in seq.entries)


def enumerate_admissible(degree: int, base_dim: int, min_excess: int) -> list[UpperSeq]:
    """All admissible I with upper_dim(I, base_dim) == degree, excess(I) > min_excess.

    The empty sequence appears when degree == base_dim (its excess is infinite).
    Output is in lexicographic order of the upper entries.  Sequences whose
    composite vanishes (a negative lower index) are not produced.
    """
    # Entries are generated in lower-index form, innermost last.  A composite of
    # dimension d_inner extends to dimension 2*d_inner + j by prepending Q_j.
    # Lower indices run nondecreasing outermost-in, so the excess constraint on
    # the head bounds every entry from below.
    j_min = max(min_excess - base_dim + 1, 0)

    @lru_cache(maxsize=None)
    def pieces(d: int) -> tuple[tuple[int, ...], ...]:
        found: list[tuple[int, ...]] = []
        if d == base_dim:
            found.append(())
        for j in range(j_min, d - 2 * base_dim + 1):
            if (d - j) % 2:
                continue
            d_inner = (d - j) // 2
            if d_inner >= d:  # guards the d == j == 0 self-call
                continue
            for inner in pieces(d_inner):
                if inner and j > inner[0]:
                    continue  # keep lower indices nondecreasing (admissibility)
                found.append((j,) + inner)
        return tuple(found)

    out = [UpperSeq(_upper_fold(js, base_dim)) for js in pieces(degree)]
    out.sort(key=lambda s: s.entries)
    return out


# ---------------------------------------------------------------------------
# Base classes of the supported space models.

KIND_SPHERE = "sphere"
KIND_UNIT_LOOP = "unit_loop"
KIND_CELL = "cell"


class BaseClass(_Ordered):
    """A homology base class an operation sequence is applied to.

    sphere:    the fundamental class x_n of S^n inside QS^n (dimension n >= 1)
    unit_loop: the class [1] of the degree-one component of QS^0 (dimension 0)
    cell:      a cell of a suspension, carrying its ambient dimension
    """

    __slots__ = _fields = ("kind", "dimension", "name")

    def __init__(self, kind: str, dimension: int, name: str = "") -> None:
        _set(self, "kind", kind)
        _set(self, "dimension", dimension)
        _set(self, "name", name)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.kind not in (KIND_SPHERE, KIND_UNIT_LOOP, KIND_CELL):
            raise ValueError(f"unknown base class kind {self.kind!r}")
        if self.kind == KIND_SPHERE and self.dimension < 1:
            raise ValueError("sphere base class needs dimension >= 1")
        if self.kind == KIND_UNIT_LOOP and self.dimension != 0:
            raise ValueError("unit loop class lives in dimension 0")
        if self.kind == KIND_CELL and self.dimension < 1:
            raise ValueError("cell base class needs dimension >= 1")

    @property
    def head(self) -> str:
        """How the class prints under its operations: x_n, [1], or name_dim."""
        if self.kind == KIND_CELL:
            return f"{self.name}_{self.dimension}"
        return "[1]" if self.kind == KIND_UNIT_LOOP else f"x_{self.dimension}"


class Applied(_Ordered):
    """Q^I(b): an admissible sequence I applied to a base class b.

    Generator and the extended module's MSymbol subclass it; each adds its own
    excess bound to __post_init__ after this admissibility check.
    """

    __slots__ = _fields = ("base", "seq")

    def __init__(self, base: BaseClass, seq: UpperSeq) -> None:
        _set(self, "base", base)
        _set(self, "seq", seq)
        self.__post_init__()

    def __post_init__(self) -> None:
        if not is_admissible(self.seq):
            raise ValueError(f"sequence {self.seq.entries} is not admissible")

    @property
    def dimension(self) -> int:
        return upper_dim(self.seq, self.base.dimension)


def sphere_class(n: int) -> BaseClass:
    return BaseClass(KIND_SPHERE, n)


def unit_loop_class() -> BaseClass:
    return BaseClass(KIND_UNIT_LOOP, 0)


def cell_class(name: str, dimension: int) -> BaseClass:
    return BaseClass(KIND_CELL, dimension, name)
