"""Field parameters and the residue representation.

A field is described by (m+1, l, c, w, q) with t = 2**l * c and
p = t**m + ... + t + 1.  Residue vectors are stored in descending-power
order, matching the oracle module: ``comps[0]`` multiplies t**m.

The stability inequalities live here only.  check_field runs the
word-size checks that GrpParams and the range check of the scans share:
types, positivity, the caps MAX_WORD_BITS and MAX_Q (check_word, which
the tables also call) and MAX_FIELD_BITS, m+1 prime (from the oracle's
table) and k <= k_max.  GrpParams adds the one per-cofactor inequality,
c not a power of two (t <= 2**k - 2).  k_max and l_min give the
word-size and I/O bounds that GrpParams, the tables and the searches
all use.  repunit, the one home of p = (t**(m+1) - 1)/(t - 1), lives
in the oracle, whose primality proof needs it, and is imported here.

GrpParams, Residue and WideResidue are frozen dataclasses: equality and
hash are the generated ones, and any assignment or del raises
FrozenInstanceError.  A GrpParams's value is its five fields
(m+1, l, c, w, q), which are also its JSON document (asdict).
Constructing one validates the field in word-size integers, builds t
and p and, unless require_prime=False, proves p prime by the scans'
call, oracle._decide(p, _products(m+1), 64, t): from the factored part
of p - 1 where that suffices, and otherwise by 64 Miller-Rabin rounds
with bases drawn from p.  Every (m+1, l, c) proven enters one record,
so each proof runs once while its key stays there.  A scan that has
proven p itself enters it in the record through _proven_field, and the
constructor then finds it there.  Both write through _record_proof,
which bounds the record at _PROVEN_LIMIT keys by clearing it when it is
full.  The constructor sets the derived values, prime_checked among
them, once: a field built with require_prime=False stays unproven, and
building it again without that flag proves it.  require_prime must be a
bool, so that no truthy or falsy stand-in picks whether p is proven.
An rng argument chooses nothing: it is checked and kept only for older
callers.  arith builds the field's kernels (modmul, base-t digits, the
two Montgomery conversions, and add and sub, which also test the slack
range) and invert's power chain (chain.power_chain, from p's parameters
alone) on first use and keeps them in ``modmul_kernel``
(arith.FieldKernels) through _keep_kernels, the one write to a field
after its constructor.  A copy or deep copy of a field is the field
itself, so it shares the built kernels; a pickle is rebuilt by the
constructor, without them.  The conversions to_residue, psi,
to_montgomery and from_montgomery run kernels, so they live in arith
too, and the least-absolute-residue digit rule, divmod(x + t/2, t), has
its one home in arith's digit kernel.  A Residue checks its own field
and components; a WideResidue checks the same shape, with no range.
zero, the loaders and a pickled or copied Residue go through that
checked constructor.  Only arith's per-op paths skip it, building their
Residue from object.__new__ and the two slot setters here: the digit,
multiplying and conversion kernels' outputs are in range by
construction, and add, sub and randomize test their results inside the
field's add kernel or sub kernel instead, raising the constructor's
range error.  _field is the one test that an operand is a Residue.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import InitVar, asdict, astuple, dataclass, fields

from .errors import NotPrimeError, ParameterError, RangeError, StabilityError
from .oracle import (_check_rng, _decide, _products, _small_prime, horner,
                     repunit)

DEFAULT_WORD_BITS = 64
DEFAULT_Q = 2
# Caps checked before t is built, so that a document from an adversary
# cannot make the loaders allocate or compute without bound.  m*k, the
# bitlength of t**m, admits every tables._DEGREES field at w <= 128.  w
# sizes the slices of red1 and v_vector, and q the length of the
# generated modmul kernel; the tables and tests use w <= 128, q <= 4.
MAX_FIELD_BITS = 1 << 13
MAX_WORD_BITS = 256
MAX_Q = 8


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for x >= 1."""
    return (x - 1).bit_length()


def k_max(m_plus_1: int, w: int) -> int:
    """Largest k with ceil(log2(m/2)) + 2k + 5 <= 2w (word-size constraint)."""
    return (2 * w - 5 - ceil_log2((m_plus_1 - 1) // 2)) // 2


def l_min(m_plus_1: int, log_t: int, q: int) -> int:
    """Smallest l with q*(l-1) >= ceil(log2(m/2)) + log_t + 3.

    This is I/O stability: q reductions by b = 2**l shrink a product back
    to reduced size.  log_t is normally k; the density estimator passes
    ceil(bits/m), which gives the same l as the exact bits/m.
    """
    need = ceil_log2((m_plus_1 - 1) // 2) + 3 + log_t
    return 1 + -(-need // q)


def check_int(name: str, value: int, least: int) -> None:
    """ParameterError unless value is an int >= least, of exact type:
    bool is an int subclass, and these values drive generated code."""
    if type(value) is not int or value < least:
        raise ParameterError(
            f"{name} must be an integer >= {least}, got {value!r}")


def check_word(w: int, q: int) -> None:
    """ParameterError unless w >= 8 and q >= 1 are ints, RangeError above
    MAX_WORD_BITS or MAX_Q."""
    check_int("w", w, 8)
    check_int("q", q, 1)
    if w > MAX_WORD_BITS or q > MAX_Q:
        raise RangeError(f"need w <= MAX_WORD_BITS = {MAX_WORD_BITS} and "
                         f"q <= MAX_Q = {MAX_Q}, got w={w} q={q}")


def check_field(m_plus_1: int, l: int, c: int, w: int, q: int) -> int:
    """Run the word-size checks of a field and return k = ceil(log2 t).

    Raises ParameterError for a malformed value or a composite m+1,
    RangeError above MAX_WORD_BITS, MAX_Q or MAX_FIELD_BITS, and
    StabilityError for k > k_max.  k and the size cap grow with c, so
    the checks at the largest c of a range cover every smaller one.
    Whether c is a power of two is left to the caller.
    """
    check_int("m_plus_1", m_plus_1, 3)
    check_int("l", l, 1)
    check_int("c", c, 1)
    check_word(w, q)
    k = l + ceil_log2(c)  # ceil_log2(t)
    if (m_plus_1 - 1) * k > MAX_FIELD_BITS:
        raise RangeError(f"m*k = {m_plus_1 - 1}*{k} exceeds "
                         f"MAX_FIELD_BITS = {MAX_FIELD_BITS}")
    # Exact: the size cap keeps m+1 <= MAX_FIELD_BITS + 1, in the table.
    if not _small_prime(m_plus_1):
        raise ParameterError(f"m+1 must be an odd prime, got {m_plus_1}")
    if k > k_max(m_plus_1, w):
        raise StabilityError(
            f"word-size constraint violated: k = {k} > "
            f"k_max = {k_max(m_plus_1, w)} at w = {w}")
    return k


@functools.cache
def _half_index_pairs(m_plus_1: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Storage-index pairs driving the product formulae.

    Entry s (storage position of output power i = m - s) lists the pairs
    (sa, sb) so that component s of the product accumulates
    (x[sa] - x[sb]) * (y[sb] - y[sa]).  The centre index is i/2 taken
    modulo m+1, which is well defined because m+1 is odd.
    """
    n = m_plus_1
    m = n - 1
    inv2 = pow(2, -1, n)
    table = []
    for s in range(n):
        i = m - s
        h = (i * inv2) % n
        pairs = []
        for j in range(1, m // 2 + 1):
            ea = (h - j) % n
            eb = (h + j) % n
            pairs.append((m - ea, m - eb))
        table.append(tuple(pairs))
    return tuple(table)


@dataclass(frozen=True)
class GrpParams:
    """Validated description of one field; ``params_new`` is this class.

    A frozen dataclass of the five fields (m+1, l, c, w, q), which alone
    give its equality, hash and JSON document; require_prime and rng are
    constructor arguments only.  Raises ParameterError for an rng that is
    not None or a random.Random or a require_prime that is not a bool,
    what check_field raises, StabilityError if c is a power of two, and
    NotPrimeError if require_prime is True and p is composite.
    Every check but the primality of p runs on word-size integers, before
    t is built.  The derived values are set once, by the constructor.
    The kernels arith generates for the field start as None in
    ``modmul_kernel``, which only _keep_kernels sets: a field that is
    never used never builds them.  A copy is the field itself; a pickle
    is rebuilt by the constructor.
    """

    m_plus_1: int
    l: int
    c: int
    w: int = DEFAULT_WORD_BITS
    q: int = DEFAULT_Q
    require_prime: InitVar[bool] = True
    rng: InitVar[random.Random | None] = None

    def __post_init__(self, require_prime: bool,
                      rng: random.Random | None) -> None:
        _check_rng(rng)
        if type(require_prime) is not bool:
            raise ParameterError(
                f"require_prime must be a bool, got {require_prime!r}")
        m_plus_1, l, c, q = self.m_plus_1, self.l, self.c, self.q
        k = check_field(m_plus_1, l, c, self.w, q)
        # t <= 2^k - 2 fails exactly for c = 2^j, where t = 2^k; otherwise
        # c < 2^(k-l) holds by the choice of k.
        if c & (c - 1) == 0:
            raise StabilityError(
                f"t = 2^{l}*{c} exceeds 2^k - 2: c is a power of two")

        object.__setattr__(self, "k", k)
        object.__setattr__(self, "b", 1 << l)
        object.__setattr__(self, "t", self.b * c)
        object.__setattr__(self, "p", repunit(self.t, m_plus_1))
        object.__setattr__(self, "ring_modulus", self.p * (self.t - 1))

        # I/O stability of repeated modmul: q reductions must shrink the
        # product back to reduced size.  slack_bits is how far l sits
        # above that minimum (negative if below).  Not enforced as an
        # error so toy fields stay constructible; search paths reject
        # unstable triples.
        object.__setattr__(self, "slack_bits", l - l_min(m_plus_1, k, q))
        object.__setattr__(self, "io_stable", self.slack_bits >= 0)
        # Inclusive bounds of a stable field's Residue components: the
        # additive slack that the next modmul absorbs.
        object.__setattr__(self, "slack_range", (-4 << k, (4 << k) - 2)
                           if self.io_stable else None)

        # Every (m+1, l, c) proven is recorded, and not proven again.
        key = (m_plus_1, l, c)
        if require_prime and key not in _PROVEN_PRIMES:
            if not _decide(self.p, _products(m_plus_1), 64, self.t):
                raise NotPrimeError(
                    f"phi_{m_plus_1}(2^{l}*{c}) is composite")
            _record_proof(key)
        object.__setattr__(self, "prime_checked", require_prime)

        # The storage-index pairs of the multiplication step.
        object.__setattr__(self, "cvma_pairs", _half_index_pairs(m_plus_1))
        # Built on first use by arith (arith.FieldKernels): the
        # straight-line kernels, the modmul trace and invert's chain.
        object.__setattr__(self, "modmul_kernel", None)

    @property
    def bits(self) -> int:
        """Bitlength of the field characteristic."""
        return self.p.bit_length()

    def label(self) -> str:
        return f"phi({self.m_plus_1},2^{self.l}*{self.c})"

    def __repr__(self) -> str:
        return f"GrpParams({self.label()}, w={self.w}, q={self.q})"

    def __reduce__(self):
        # Rebuilt by the constructor, which finds a proven p in the
        # record; the per-field kernel cache is not carried.
        return GrpParams, (*astuple(self), self.prime_checked)

    def __copy__(self) -> GrpParams:
        return self

    def __deepcopy__(self, memo) -> GrpParams:
        return self


# The InitVars' defaults would otherwise read as attributes of every
# field: require_prime True on an unproven one.
del GrpParams.require_prime, GrpParams.rng
_FIELD_NAMES = tuple(f.name for f in fields(GrpParams))


def _keep_kernels(params: GrpParams, built) -> None:
    """Keep arith's FieldKernels in params.modmul_kernel, the field's one
    cache: the one write to a GrpParams after its constructor."""
    object.__setattr__(params, "modmul_kernel", built)


params_new = GrpParams


# (m+1, l, c) of characteristics proven prime: by the GrpParams
# constructor, or by a scan through _proven_field.  It holds at most
# _PROVEN_LIMIT keys, so a process that scans for long keeps a bounded
# record: a full record is cleared, and a field whose key went with it
# is proven again when it is next built (a pickle is rebuilt so).
_PROVEN_LIMIT = 1024
_PROVEN_PRIMES: set[tuple[int, int, int]] = set()


def _record_proof(key: tuple[int, int, int]) -> None:
    """Enter (m+1, l, c) in _PROVEN_PRIMES, the one write to it; a
    record already holding _PROVEN_LIMIT keys is cleared first."""
    if len(_PROVEN_PRIMES) >= _PROVEN_LIMIT:
        _PROVEN_PRIMES.clear()
    _PROVEN_PRIMES.add(key)


def _proven_field(m_plus_1: int, l: int, c: int, w: int, q: int) -> GrpParams:
    """The GrpParams of a field whose p a scan of tables has just proven
    prime: recorded, then built by the constructor, which finds it in
    the record and does not prove it again."""
    _record_proof((m_plus_1, l, c))
    return GrpParams(m_plus_1, l, c, w, q)


def check_params(params: GrpParams) -> None:
    """ParameterError unless params is a GrpParams, of exact type."""
    if type(params) is not GrpParams:
        raise ParameterError(f"params must be a GrpParams, got {params!r}")


def _check_vector(comps: tuple[int, ...], params: GrpParams) -> None:
    """The shape checks of Residue and WideResidue: ParameterError unless
    params is a GrpParams and comps a tuple of m+1 exact ints (no bool or
    float)."""
    check_params(params)
    if type(comps) is not tuple or len(comps) != params.m_plus_1:
        raise ParameterError(
            f"expected a tuple of {params.m_plus_1} components")
    for comp in comps:
        if type(comp) is not int:
            raise ParameterError("components must be ints")


@dataclass(frozen=True)
class Residue:
    """Length-(m+1) vector of signed components, descending powers of t.

    A frozen dataclass: ParameterError unless params is a GrpParams (of
    exact type, as to_residue and psi require) and comps a tuple of m+1
    exact ints (no bool or float), inside
    params.slack_range when the field is io_stable.  A pickle or copy is
    rebuilt by this checked constructor.
    """

    __slots__ = ("comps", "params")
    comps: tuple[int, ...]
    params: GrpParams

    def __post_init__(self) -> None:
        comps, params = self.comps, self.params
        _check_vector(comps, params)
        bounds = params.slack_range
        if bounds is not None and not (bounds[0] <= min(comps)
                                       and max(comps) <= bounds[1]):
            raise ParameterError("component outside additive slack range")

    def __reduce__(self):
        return Residue, (self.comps, self.params)


_set_comps = Residue.comps.__set__
_set_params = Residue.params.__set__


@dataclass(frozen=True)
class WideResidue:
    """Double-width accumulator vector, output of the multiplication step.
    ParameterError unless params is a GrpParams and comps a tuple of m+1
    exact ints, as for a Residue, but with no bound on the components."""

    comps: tuple[int, ...]
    params: GrpParams

    def __post_init__(self) -> None:
        _check_vector(self.comps, self.params)


def _vector_field(r: Residue | WideResidue) -> GrpParams:
    """The field of r; ParameterError unless r is a Residue or a
    WideResidue, of exact type."""
    if type(r) is not Residue and type(r) is not WideResidue:
        raise ParameterError(
            f"expected a Residue, got {type(r).__name__}")
    return r.params


def _field(x: Residue) -> GrpParams:
    """The field of x; ParameterError unless x is a Residue, of exact type
    (a WideResidue's components are outside the slack range the kernels
    are proven for)."""
    if type(x) is not Residue:
        raise ParameterError(f"expected a Residue, got {type(x).__name__}")
    return x.params


def canonical_value(r: Residue | WideResidue) -> int:
    """Evaluate a vector at t and reduce modulo the field characteristic.
    ParameterError unless r is a Residue or a WideResidue."""
    params = _vector_field(r)
    return horner(r.comps, params.t) % params.p


def zero(params: GrpParams) -> Residue:
    check_params(params)
    return Residue((0,) * params.m_plus_1, params)


def residue_to_json(r: Residue) -> str:
    obj = asdict(_field(r))
    obj["comps"] = [str(comp) for comp in r.comps]
    return json.dumps(obj)


def residue_from_json(text: str) -> Residue:
    """Load a residue_to_json document; ParameterError if it is malformed.

    A component must be the text residue_to_json writes, str(int):
    ASCII digits after an optional "-", with no leading zero, no "-0"
    and nothing else.
    """
    obj = _json_object(text)
    params = _params_from_obj(obj)
    comps = obj.get("comps")
    if type(comps) is not list or any(type(s) is not str for s in comps):
        raise ParameterError("comps must be a list of decimal strings")
    try:
        values = tuple(int(s) for s in comps)
    except ValueError:  # not a number, or over the int-from-str limit
        values = None
    if values is None or list(map(str, values)) != comps:
        raise ParameterError("comps must be a list of decimal strings")
    return Residue(values, params)


def params_to_json(params: GrpParams) -> str:
    return json.dumps(asdict(params))


def params_from_json(text: str) -> GrpParams:
    """Load a params_to_json document; ParameterError if it is malformed."""
    return _params_from_obj(_json_object(text))


def _json_object(text: str) -> dict:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParameterError(f"not a JSON document: {exc}") from None
    if type(obj) is not dict:
        raise ParameterError("expected a JSON object")
    return obj


def _params_from_obj(obj: dict) -> GrpParams:
    missing = [name for name in _FIELD_NAMES if name not in obj]
    if missing:
        raise ParameterError(f"missing field(s) {', '.join(missing)}")
    return GrpParams(*(obj[name] for name in _FIELD_NAMES))


def ring_value(r: Residue | WideResidue) -> int:
    """Evaluate a vector modulo t^(m+1) - 1, the embedding ring; raises
    as canonical_value."""
    params = _vector_field(r)
    return horner(r.comps, params.t) % params.ring_modulus
