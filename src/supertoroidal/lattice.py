"""Integral lattice with bilinear form, parity grading and sign cocycle.

The lattice Gbar is free abelian on basis vectors

    e_1 .. e_M,  delta_1 .. delta_{q-1},  d_1 .. d_{q-1}

with symmetric bilinear form

    (e_i, e_j) = delta_ij,
    (delta_i, d_j) = delta_ij,
    all other basis pairings zero.

Two sublattices matter: Gamma (e-block only) and Q (no d-components).
The Z_2 parity of a vector is its norm mod 2, which reduces to the sum
of its e-coordinates mod 2 because the delta/d cross terms are even.

The cocycle F takes values +-1, is bimultiplicative in both slots, and
on basis pairs equals -1 exactly for (e_i, e_j) with i > j; every pair
involving a delta or d generator has value 1 (the extension to the d
generators is a free choice and is fixed this way for reproducibility).
Its first argument must lie in Q.

Record, the base of the package's immutable value classes, lives here
because this module is the first every import of the package loads.
"""

from __future__ import annotations

from operator import add, itemgetter, mul


class Record:
    """An immutable record whose fields are the names annotated in its class body
    and its bases', bases first; a value in the class body is the field's default.

    The fields are read once per class, and no code is generated for it. A record
    is built from positional or keyword arguments, then checked by __post_init__.
    Its __dict__ holds exactly its fields, in order: the repr is
    Name(field=value!r, ...), a record equals only a record of its own class with
    equal fields and hashes as the tuple of its fields, and setting or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = {}
        for base in reversed(cls.__mro__):
            names.update(dict.fromkeys(vars(base).get("__annotations__", ())))
        cls._fields = tuple(names)
        cls._defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _bind(self, args, kwargs) -> list:
        """The field values, in order, from arguments that are not one positional per field."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing required arguments {missing}")
        return [values[f] if f in values else self._defaults[f] for f in fields]

    def __post_init__(self):
        pass

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {type(self).__name__}")


class LatticeConfig(Record):
    """Shape of the lattice: M e-generators and q-1 delta/d pairs."""

    M: int
    q: int = 1

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("M must be >= 1")
        if self.q < 1:
            raise ValueError("q must be >= 1")

    @property
    def rank(self) -> int:
        return self.M + 2 * (self.q - 1)

    def zero(self) -> "LatticeVector":
        return LatticeVector.from_flat((0,) * self.rank, self.M)

    def _unit(self, block: int, i: int) -> "LatticeVector":
        """Basis vector i, 1-based, of block 0 (e), 1 (delta) or 2 (d)."""
        size = self.M if block == 0 else self.q - 1
        if not 1 <= i <= size:
            raise ValueError(f"{('e', 'delta', 'd')[block]} index {i} out of range 1..{size}")
        return self.basis_vector((0, self.M, self.M + size)[block] + i - 1)

    def e(self, i: int) -> "LatticeVector":
        """Basis vector e_i, 1-based."""
        return self._unit(0, i)

    def delta(self, j: int) -> "LatticeVector":
        """Basis vector delta_j, 1-based, defined for q >= 2."""
        return self._unit(1, j)

    def dgen(self, j: int) -> "LatticeVector":
        """Basis vector d_j, 1-based, defined for q >= 2."""
        return self._unit(2, j)

    def root(self, i: int, j: int) -> "LatticeVector":
        """alpha_ij = e_i - e_j (zero when i = j)."""
        return self.e(i) - self.e(j) if i != j else self.zero()

    def delta_sum(self, mu) -> "LatticeVector":
        """delta_mu = sum_i mu_i delta_i for mu in Z^(q-1)."""
        mu = tuple(int(c) for c in mu)
        if len(mu) != self.q - 1:
            raise ValueError(f"expected {self.q - 1} exponents, got {len(mu)}")
        return LatticeVector((0,) * self.M, mu, (0,) * (self.q - 1))

    def basis_vector(self, idx: int) -> "LatticeVector":
        """Basis vector by flat 0-based index: e-block, delta-block, d-block."""
        if not 0 <= idx < self.rank:
            raise ValueError(f"basis index {idx} out of range 0..{self.rank - 1}")
        return LatticeVector.from_flat(tuple(int(k == idx) for k in range(self.rank)), self.M)


class LatticeVector(tuple):
    """Element of Gbar with exact integer coordinates in the fixed basis: the
    tuple (e, delta, d) of its three coordinate blocks.

    Hash and equality are the tuple's. The operators below are the lattice's,
    so + and * add and scale coordinates; they never concatenate or repeat.
    """

    __slots__ = ()

    def __new__(cls, e, delta=(), d=()):
        if len(delta) != len(d):
            raise ValueError("delta and d blocks must have equal length")
        return tuple.__new__(cls, (e, delta, d))

    def __getnewargs__(self):
        # copy and pickle rebuild a tuple subclass as cls.__new__(cls, *these)
        return tuple(self)

    e = property(itemgetter(0))
    delta = property(itemgetter(1))
    d = property(itemgetter(2))

    @property
    def shape(self) -> tuple:
        """(M, q): M e-coordinates and q - 1 delta/d pairs."""
        return len(self[0]), len(self[1]) + 1

    @property
    def rank(self) -> int:
        return len(self[0]) + 2 * len(self[1])

    @property
    def flat(self) -> tuple:
        """The coordinates in flat basis order: the e, then the delta, then the d block."""
        return self[0] + self[1] + self[2]

    @classmethod
    def from_flat(cls, coords: tuple, M: int) -> "LatticeVector":
        """The vector whose flat coordinates (see flat) are coords, M of them in the e block."""
        k = (len(coords) - M) // 2
        return cls(coords[:M], coords[M:M + k], coords[M + k:])

    def in_q(self) -> bool:
        return not any(self.d)

    def is_zero(self) -> bool:
        return not any(self.flat)

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        _check_shape(self, other)
        return LatticeVector(*[tuple(map(add, x, y)) for x, y in zip(self, other)])

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return self + (-other)

    def __neg__(self) -> "LatticeVector":
        return self * -1

    def __mul__(self, n: int) -> "LatticeVector":
        return LatticeVector(*[tuple(n * c for c in x) for x in self])

    __rmul__ = __mul__

    def __repr__(self):
        parts = [f"{c:+d}*{name}{k + 1}" for name, coords in zip(("e", "delta", "d"), self)
                 for k, c in enumerate(coords) if c]
        return "LatticeVector<" + (" ".join(parts) or "0") + ">"


def _check_shape(a: LatticeVector, b: LatticeVector):
    if len(a[0]) != len(b[0]) or len(a[1]) != len(b[1]):
        raise ValueError(f"lattice shape mismatch: (M, q) = {a.shape} vs {b.shape}")


def _dual(a: LatticeVector) -> tuple:
    """a's pairings with the flat basis: delta_j pairs with d-coordinate j, d_j with delta."""
    return a[0] + a[2] + a[1]


def bilinear(a: LatticeVector, b: LatticeVector) -> int:
    """Symmetric form: orthonormal e-block plus the delta/d duality."""
    _check_shape(a, b)
    return sum(map(mul, a.flat, _dual(b)))


def parity(a: LatticeVector) -> int:
    """Norm mod 2; only the e-block contributes."""
    return sum(a.e) % 2


def cocycle(a: LatticeVector, b: LatticeVector) -> int:
    """Bimultiplicative sign F(a, b) in {+1, -1}, for a in Q.

    Expanding bimultiplicatively over the basis, the only -1 factors come
    from e-pairs (e_i, e_j) with i > j, so F(a, b) = (-1)^D with
    D = sum_{i > j} a_i b_j over e-coordinates.
    """
    _check_shape(a, b)
    if not a.in_q():
        raise ValueError(f"cocycle first argument must lie in Q, got {a!r}")
    ae, be = a.e, b.e
    dd = 0
    for i in range(1, len(ae)):
        ai = ae[i]
        if ai:
            dd += ai * sum(be[:i])
    return -1 if dd % 2 else 1


def pair_with_basis(a: LatticeVector, idx: int) -> int:
    """(a, basis_vector(idx)) without materialising the basis vector."""
    dual = _dual(a)
    if not 0 <= idx < len(dual):
        raise ValueError(f"basis index {idx} out of range for rank {len(dual)}")
    return dual[idx]


def basis_support(a: LatticeVector):
    """Pairs (flat basis index, coordinate) for the nonzero coordinates."""
    return [(i, c) for i, c in enumerate(a.flat) if c]
