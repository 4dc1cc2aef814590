"""Textual (JSON) encodings for states, elements and operators.

All coefficients are emitted as explicit "p/q" strings and parsed back
with exact rational arithmetic, so round trips are bit-exact.  A reader
takes a coefficient as a JSON int or a "p" or "p/q" string of ASCII
digits with an optional leading "-", and a monomial factor's "power" up
to MAX_POWER.  Emitted term lists are canonically sorted.

A lattice vector is an object with integer arrays "e", "delta", "d".
An omitted array is the zero block: of the config's length when a
LatticeConfig is supplied, else of the other block's length ("e" is then
required), so delta and d are never padded to agree.  Output always
carries all three arrays so that every emitted object is self-describing.

A term is its "coeff" next to the fields of its key; each key half, the
lattice ("gamma", "monomial") and the boson ("phi", "phi_star") one, has
one encoder and one decoder.  An operator is its "kind" and its fields.
A reader refuses a JSON value of the wrong shape (an array where an
object belongs, an object or a string where an array belongs, null) or
an object without a required field with ValueError, like any other bad
input.

A state repeats few gammas, monomials, phi/phi_star lists and
coefficients over many terms, so a state reader costs a pass over the
terms plus one full read per distinct gamma, per distinct monomial of a
gamma's rank, per distinct mode list and per distinct coefficient
string, kept in a memo for the call.  It refuses a state whose gammas
mix lattice shapes, checking the shape of each distinct gamma as it is
read, so a gamma of another shape on a term of coefficient 0 or on
terms that cancel is refused too.  Only a key made of exact ints, or a
coefficient that is a str, is looked up there, so a 1.0 or a true,
which equal 1 and hash alike, never shares an entry with a 1.  A state
encoder builds one object per distinct gamma, monomial and mode list and
lets the terms that have it share it, so its result is for encoding
(dumps, json.dumps), not for editing in place.

dumps writes the text of json.dumps(obj, sort_keys=True, indent=2) and a
newline, byte for byte, but emits it directly: json.dumps runs its
pure-Python encoder whenever indent is set, while dumps hands str keys
and strings to the C string encoder and ints to int.__repr__, and passes
only the rare other scalars (floats, bools, None) to json.dumps without
an indent.  A dict or list that several dict values share is written
once per indent level and its text reused.  A value dumps does not
write itself (a non-str key, a value of no JSON type, keys that cannot
be sorted, a cycle) hands the whole object to json.dumps, which writes
or refuses it.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .lattice import LatticeConfig, LatticeVector
from .fock_lattice import LatticeFockState
from .fock_boson import BosonState, creation_modes
from .superalgebra import GLElement, ToroidalElement
from . import representation as rep


def frac_to_str(c) -> str:
    if type(c) is not Fraction:
        c = Fraction(c)
    return "%d/%d" % c.as_integer_ratio()


# the grammar frac_to_str writes: ASCII digits with an optional leading "-", then "/" and digits
_FRAC = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def frac_from_str(s) -> Fraction:
    """A "p" or "p/q" string or an int as a Fraction.

    Any other string ("1.5", " 3 ", "1_000", "1e2000000") is refused, as
    are a float and a bool, so a coefficient costs work in proportion to
    its digits.
    """
    if type(s) is int:
        return Fraction(s)
    m = _FRAC.fullmatch(s) if type(s) is str else None
    if m is None:
        raise ValueError(f"coefficient {s!r} is not an int or a 'p' or 'p/q' string")
    p, q = m.groups()
    q = int(q or 1)
    if not q:
        raise ValueError(f"coefficient {s!r} has a zero denominator")
    return Fraction(int(p), q)


def _object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _int(x, what: str) -> int:
    """x if it is an integer; a float, a bool or a string is refused, not truncated or parsed."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _array(seq, what: str):
    if not isinstance(seq, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array, got {type(seq).__name__}")
    return seq


_INT = frozenset((int,))


def _ints(seq, what: str) -> tuple:
    if set(map(type, _array(seq, what))) <= _INT:
        return tuple(seq)
    return tuple(_int(x, what) for x in seq)  # raises at the first non-integer


def _wrong_shape(what: str, exc: Exception) -> ValueError:
    """A KeyError, TypeError or AttributeError met while reading nested fields, as the input
    error it is."""
    if isinstance(exc, KeyError):
        return ValueError(f"{what} lacks the field {exc}")
    return ValueError(f"{what} has a field of the wrong JSON type ({exc})")


def vector_to_obj(v: LatticeVector) -> dict:
    return {"e": list(v.e), "delta": list(v.delta), "d": list(v.d)}


def vector_from_obj(obj, config: LatticeConfig | None = None) -> LatticeVector:
    _object(obj, "a lattice vector")
    if config is not None:
        e = _ints(obj.get("e", (0,) * config.M), "e")
        delta = _ints(obj.get("delta", (0,) * (config.q - 1)), "delta")
        d = _ints(obj.get("d", (0,) * (config.q - 1)), "d")
        if len(e) != config.M or len(delta) != config.q - 1 or len(d) != config.q - 1:
            raise ValueError(f"vector {obj} does not fit M={config.M}, q={config.q}")
    else:
        if "e" not in obj:
            raise ValueError("vector object without 'e' needs an explicit config")
        e = _ints(obj["e"], "e")
        blocks = {name: _ints(obj[name], name) for name in ("delta", "d") if name in obj}
        # an omitted block is the zero one of the other's length; LatticeVector judges the rest
        zero = (0,) * max(map(len, blocks.values()), default=0)
        delta, d = blocks.get("delta", zero), blocks.get("d", zero)
    return LatticeVector(e, delta, d)


def _monomial_to_obj(mono) -> list:
    counts = {}
    for f in mono:
        counts[f] = counts.get(f, 0) + 1
    return [{"basis": b, "mode": n, "power": p} for (b, n), p in sorted(counts.items())]


# a monomial factor's "power" is read as that many copies of the factor
MAX_POWER = 256


def _monomial_from_obj(obj, rank: int) -> tuple:
    factors = []
    for f in _array(obj, "a monomial"):
        b, n = _int(f["basis"], "basis"), _int(f["mode"], "mode")
        p = _int(f.get("power", 1), "power")
        if n < 1 or p < 1:
            raise ValueError(f"bad monomial factor {f}")
        if p > MAX_POWER:
            raise ValueError(f"monomial power {p} exceeds the limit {MAX_POWER}")
        if not 0 <= b < rank:
            raise ValueError(f"monomial basis {b} out of range 0..{rank - 1} of its gamma")
        factors.extend([(b, n)] * p)
    return tuple(sorted(factors))


def _one_shape(state, shapes):
    """state, once every gamma read for it, on a term of coefficient 0 or on terms
    that cancel too, has the same lattice shape (M, q)."""
    shapes = sorted(set(shapes))
    if len(shapes) > 1:
        raise ValueError(f"state mixes lattice shapes (M, q): {shapes}")
    return state


def _modes_to_obj(modes) -> list:
    return [{"flavor": f, "doubled_mode": k} for f, k in modes]


def _modes_from_obj(obj, what: str) -> tuple:
    return creation_modes((_int(x["flavor"], "flavor"), _int(x["doubled_mode"], "doubled_mode"))
                          for x in _array(obj, what))


class _KeyWriter:
    """The key encoders of one state, which encode each distinct gamma, monomial and
    mode list once; the terms that have one share its object."""

    __slots__ = ("gammas", "monomials", "mode_lists")

    def __init__(self):
        self.gammas = {}  # LatticeVector -> its object
        self.monomials = {}  # sorted factors -> their list
        self.mode_lists = {}  # sorted creators -> their list

    def lattice(self, key, obj) -> dict:
        gamma, mono = key
        v = self.gammas.get(gamma)
        if v is None:
            v = self.gammas[gamma] = vector_to_obj(gamma)
        obj["gamma"] = v
        v = self.monomials.get(mono)
        if v is None:
            v = self.monomials[mono] = _monomial_to_obj(mono)
        obj["monomial"] = v
        return obj

    def modes(self, modes) -> list:
        v = self.mode_lists.get(modes)
        if v is None:
            v = self.mode_lists[modes] = _modes_to_obj(modes)
        return v

    def boson(self, key, obj) -> dict:
        obj["phi"], obj["phi_star"] = self.modes(key[0]), self.modes(key[1])
        return obj

    def tensor(self, key, obj) -> dict:
        return self.boson(key[1], self.lattice(key[0], obj))


_LIST = frozenset((list,))
# a boson mode's two fields as one pair
_FLAVOR_MODE = itemgetter("flavor", "doubled_mode")
# a monomial factor's three fields as one triple
_FACTOR = itemgetter("basis", "mode", "power")


def _memo(memo: dict, raw, read, *args):
    """memo[raw], filled with read(*args) on a miss."""
    v = memo.get(raw)
    if v is None:
        v = memo[raw] = read(*args)
    return v


class _KeyReader:
    """The key readers of one state, which read each distinct gamma, monomial and mode
    list once.

    A raw value is looked up only once each of its elements is exactly an
    int; anything else (an omitted field, a value that is not a list, a
    nested or unhashable value) is read the uncached way and raises what
    that raises.  A monomial is looked up with its gamma's rank, which
    bounds its basis indices.
    """

    __slots__ = ("config", "gammas", "shapes", "monomials", "mode_lists")

    def __init__(self, config: LatticeConfig | None = None):
        self.config = config
        self.gammas = {}  # (e, delta, d) as read -> its LatticeVector
        self.shapes = set()  # the lattice shape of every gamma read, before any term is dropped
        self.monomials = {}  # (rank, ((basis, mode, power), ...) as read) -> its sorted factors
        self.mode_lists = {}  # ((flavor, doubled_mode), ...) as read -> its sorted creators

    def _vector(self, obj) -> LatticeVector:
        v = vector_from_obj(obj, self.config)
        self.shapes.add(v.shape)
        return v

    def gamma(self, obj) -> LatticeVector:
        if type(obj) is dict:
            e, delta, d = obj.get("e"), obj.get("delta"), obj.get("d")
            if ({type(e), type(delta), type(d)} <= _LIST
                    and set(map(type, chain(e, delta, d))) <= _INT):
                return _memo(self.gammas, (tuple(e), tuple(delta), tuple(d)), self._vector, obj)
        return self._vector(obj)

    def monomial(self, obj, rank: int) -> tuple:
        if type(obj) is list:
            if not obj:
                return ()
            try:
                raw = tuple(map(_FACTOR, obj))
            except (KeyError, TypeError):
                return _monomial_from_obj(obj, rank)
            if set(map(type, chain.from_iterable(raw))) <= _INT:
                return _memo(self.monomials, (rank, raw), _monomial_from_obj, obj, rank)
        return _monomial_from_obj(obj, rank)

    def lattice(self, item) -> tuple:
        gamma = self.gamma(item["gamma"])
        return gamma, self.monomial(item.get("monomial", ()), gamma.rank)

    def modes(self, obj, what: str) -> tuple:
        if type(obj) is list:
            if not obj:
                return ()
            try:
                raw = tuple(map(_FLAVOR_MODE, obj))
            except (KeyError, TypeError):
                return _modes_from_obj(obj, what)
            if set(map(type, chain.from_iterable(raw))) <= _INT:
                return _memo(self.mode_lists, raw, creation_modes, raw)
        return _modes_from_obj(obj, what)

    def boson(self, item) -> tuple:
        return (self.modes(item.get("phi", ()), "phi"),
                self.modes(item.get("phi_star", ()), "phi_star"))

    def tensor(self, item) -> tuple:
        return self.lattice(item), self.boson(item)


# the integer fields of a toroidal key after its kind; the exponent comes last
_TOROIDAL_FIELDS = {"T": ("i", "j"), "K": ("direction",)}


def _toroidal_key_to_obj(key, obj) -> dict:
    kind, *ints, exp = key
    obj.update(zip(_TOROIDAL_FIELDS[kind], ints), kind=kind, exponent=list(exp))
    return obj


def _toroidal_key_from_obj(item) -> tuple:
    names = _TOROIDAL_FIELDS.get(item["kind"])
    if names is None:
        raise ValueError(f"unknown toroidal term kind {item['kind']!r}")
    exp = _ints(item["exponent"], "exponent")
    return (item["kind"], *(_int(item[name], name) for name in names), exp)


def _terms_to_obj(x, key_to_obj) -> list:
    """One object per term; key_to_obj(key, obj) returns obj with the key's fields."""
    return [key_to_obj(key, {"coeff": frac_to_str(c)}) for key, c in x.sorted_terms()]


def _coeff(memo: dict, s) -> Fraction:
    """frac_from_str(s), a string parsed once per memo; only a str is looked up, so a
    true never shares the entry of a 1."""
    return _memo(memo, s, frac_from_str, s) if type(s) is str else frac_from_str(s)


def _terms_from_obj(cls, obj, key_from_obj):
    """The cls state of the terms in obj, each distinct coefficient string parsed once."""
    what = f"a {cls.__name__}"
    coeffs = {}  # a coefficient string -> its Fraction
    try:
        return cls._sum((key_from_obj(item), _coeff(coeffs, item["coeff"]))
                        for item in _array(obj, what))
    except (KeyError, TypeError, AttributeError) as exc:
        raise _wrong_shape(what, exc) from None


def lattice_state_to_obj(s: LatticeFockState) -> list:
    return _terms_to_obj(s, _KeyWriter().lattice)


def lattice_state_from_obj(obj, config: LatticeConfig | None = None) -> LatticeFockState:
    reader = _KeyReader(config)
    return _one_shape(_terms_from_obj(LatticeFockState, obj, reader.lattice), reader.shapes)


def boson_state_to_obj(s: BosonState) -> list:
    return _terms_to_obj(s, _KeyWriter().boson)


def boson_state_from_obj(obj) -> BosonState:
    return _terms_from_obj(BosonState, obj, _KeyReader().boson)


def tensor_state_to_obj(s: rep.TensorState) -> list:
    return _terms_to_obj(s, _KeyWriter().tensor)


def tensor_state_from_obj(obj, config: LatticeConfig | None = None) -> rep.TensorState:
    reader = _KeyReader(config)
    return _one_shape(_terms_from_obj(rep.TensorState, obj, reader.tensor), reader.shapes)


def gl_element_to_obj(x: GLElement) -> list:
    return _terms_to_obj(x, lambda key, obj: {**obj, "i": key[0], "j": key[1]})


def gl_element_from_obj(obj) -> GLElement:
    return _terms_from_obj(GLElement, obj,
                           lambda item: (_int(item["i"], "i"), _int(item["j"], "j")))


def toroidal_to_obj(x: ToroidalElement) -> list:
    return _terms_to_obj(x, _toroidal_key_to_obj)


def toroidal_from_obj(obj) -> ToroidalElement:
    return _terms_from_obj(ToroidalElement, obj, _toroidal_key_from_obj)


_OPERATOR_KINDS = {
    "vertex": rep.VertexMode,
    "current": rep.Current,
    "phi": rep.PhiMode,
    "phi_star": rep.PhiStarMode,
    "diag_current": rep.DiagCurrent,
    "s_op": rep.SOp,
    "central": rep.CentralImage,
    "normal_pair_sum": rep.NormalPairSum,
    "vertex_product_sum": rep.VertexProductSum,
    "product": rep.OpProduct,
    "sum": rep.OpSum,
}
_KIND_OF = {cls: kind for kind, cls in _OPERATOR_KINDS.items()}
# operator fields by their encoding; any other field is an int
_VECTOR_FIELDS = ("alpha", "a", "b")
_INT_LIST_FIELDS = ("mu", "mbar")


def operator_to_obj(op) -> dict:
    kind = _KIND_OF.get(type(op))
    if kind is None:
        raise TypeError(f"not a serialisable operator: {op!r}")
    obj = {"kind": kind}
    for name in op._fields:
        value = getattr(op, name)
        if name in _VECTOR_FIELDS:
            value = vector_to_obj(value)
        elif name in _INT_LIST_FIELDS:
            value = list(value)
        elif name == "factors":
            value = [operator_to_obj(f) for f in value]
        elif name == "terms":
            value = [{"coeff": frac_to_str(c), "op": operator_to_obj(o)} for c, o in value]
        obj[name] = value
    return obj


def operator_from_obj(obj, config: LatticeConfig | None = None):
    kind = _object(obj, "an operator").get("kind")
    cls = _OPERATOR_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown operator kind {kind!r}")
    args = []
    try:
        for name in cls._fields:
            if name in _VECTOR_FIELDS:
                args.append(vector_from_obj(obj[name], config))
            elif name in _INT_LIST_FIELDS:
                # an omitted mu is the empty one of q = 1; CentralImage refuses an empty mbar
                args.append(_ints(obj.get(name, ()), name))
            elif name == "factors":
                args.append(tuple(operator_from_obj(f, config)
                                  for f in _array(obj["factors"], "factors")))
            elif name == "terms":
                args.append(tuple((frac_from_str(t["coeff"]), operator_from_obj(t["op"], config))
                                  for t in _array(obj["terms"], "terms")))
            else:
                args.append(_int(obj[name], name))
    except (KeyError, TypeError, AttributeError) as exc:
        raise _wrong_shape("an operator", exc) from None
    return cls(*args)


_encode_str = json.encoder.encode_basestring_ascii


def _emit(o, out: list, nl: str, texts: dict):
    """Append the indent=2 JSON text of o to out; nl is a newline and the indent of o's level.

    texts maps the id of each dict or list met as a dict value to that
    object, its nl and its text, so an object that several dict values
    share, as the state encoders make them, is written once per level.
    Raises TypeError or RecursionError on a value it does not write.
    """
    t = type(o)
    if t is str:
        out.append(_encode_str(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is dict or isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k in sorted(o):
            v = o[k]
            out.append(f"{sep}{_encode_str(k)}: ")
            if type(v) is dict or type(v) is list:
                seen = texts.get(id(v))
                if seen is not None and seen[1] == inner:
                    out.append(seen[2])
                else:
                    start = len(out)
                    _emit(v, out, inner, texts)
                    out[start:] = ["".join(out[start:])]
                    texts[id(v)] = v, inner, out[start]  # v is kept, so its id is not reused
            else:
                _emit(v, out, inner, texts)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) <= _INT:
            out.append(f"[{inner}{(',' + inner).join(map(int.__repr__, o))}{nl}]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _emit(v, out, inner, texts)
            sep = "," + inner
        out.append(nl + "]")
    else:
        # a float, a bool, None or an int or str subclass reads the same at any indent
        out.append(json.dumps(o))


def dumps(obj) -> str:
    """Canonical JSON text: json.dumps(obj, sort_keys=True, indent=2), newline terminated."""
    out = []
    try:
        _emit(obj, out, "\n", {})
    except (TypeError, RecursionError):
        # json.dumps writes or refuses what _emit does not, off the common path
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    out.append("\n")
    return "".join(out)
