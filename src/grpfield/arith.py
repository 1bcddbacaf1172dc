"""Residue multiplication, reduction and auxiliary field operations.

The multiplication step computes each product component from m/2
difference products; reduction divides components by b = 2**l while
staying in the same congruence class modulo t**(m+1) - 1.  A full
modular multiplication is the multiplication step followed by q
reductions, so results carry a b**-q factor: all field arithmetic
happens in the Montgomery domain, where the factor cancels.

Every operation executes the same sequence of primitive operations
regardless of the input values.  ``modmul`` and ``invert`` run a
straight-line kernel generated for each field on its first use (see
:func:`kernel_source`), tested against cvma_mul and the plain red3 (the
kernel alone runs red3's cofactor product as shift-and-add); an
OpCounter passed in only receives the closed-form tally of that
sequence (:func:`modmul_trace`) and never changes the code that runs.
The kernel, its trace and the Montgomery constants are built together
and kept in ``params.modmul_kernel``, the field's one cache.

add, sub, randomize and modmul_interleaved return checked Residues.
The kernel's outputs skip the check (params._unchecked_residue): they
stay in the slack range, as the tests check on slack-edge inputs.
Every operation on two residues refuses operands from two fields.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass
from typing import Callable

from .errors import ParameterError, ZeroInverseError
from .oracle import modular_inverse
from .params import (GrpParams, Residue, WideResidue, _unchecked_residue,
                     canonical_value, to_residue)

# A field's generated modmul: component tuples in, reduced tuple out.
Kernel = Callable[[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]
Comps = tuple[int, ...]


@dataclass
class OpCounter:
    """Counts of primitive operation classes executed."""

    mul: int = 0
    add: int = 0
    shift: int = 0
    mask: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def tally(self, counts: dict[str, int], times: int = 1) -> None:
        """Add `times` runs of an operation sequence with these counts."""
        for name, count in counts.items():
            setattr(self, name, getattr(self, name) + times * count)


class _Uncounted(OpCounter):
    """The default counter: drops every tally."""

    def tally(self, counts: dict[str, int], times: int = 1) -> None:
        pass


UNCOUNTED = _Uncounted()


def _cvma_counts(m_plus_1: int) -> dict[str, int]:
    """Per component, m/2 products of two differences and m/2 - 1 adds."""
    h = (m_plus_1 - 1) // 2
    return {"mul": m_plus_1 * h, "add": m_plus_1 * (3 * h - 1)}


def _same_field(x: Residue, y: Residue) -> GrpParams:
    """The field of both operands; raises if they come from two fields."""
    params = x.params
    if y.params is not params and y.params != params:
        raise ParameterError("residues from different fields")
    return params


def cvma_mul(x: Residue, y: Residue,
             counter: OpCounter = UNCOUNTED) -> WideResidue:
    """Multiplication step: m/2 difference products per component.

    The result is congruent to x*y modulo the field characteristic (not
    modulo t**(m+1) - 1: the dropped dot-product term is a multiple of
    the all-ones vector, which vanishes only modulo p).
    """
    params = x.params
    xc = x.comps
    yc = y.comps
    out = []
    for pairs in params.cvma_pairs:
        acc = 0
        for sa, sb in pairs:
            acc += (xc[sa] - xc[sb]) * (yc[sb] - yc[sa])
        out.append(acc)
    counter.tally(_cvma_counts(params.m_plus_1))
    return WideResidue(tuple(out), params)


def red3(z: WideResidue) -> WideResidue:
    """Divide components by b via arithmetic shift plus a cofactor term.

    Component i becomes z_i/b + c*(z_{i+1} mod b), cyclically; floor
    semantics on the shift keep the division exact in the telescoped sum.
    This is the definition the generated kernel is tested against; only
    the kernel runs the cofactor product as shift-and-add.
    """
    params = z.params
    l, c, mask = params.l, params.c, params.b - 1
    zc = z.comps  # zc[s - 1] wraps to the constant term at s = 0
    return WideResidue(tuple((zc[s] >> l) + c * (zc[s - 1] & mask)
                             for s in range(params.m_plus_1)), params)


def red2(z: WideResidue) -> WideResidue:
    """Variant of red3 rounding the shifted term up instead of down."""
    params = z.params
    l, c, mask = params.l, params.c, params.b - 1
    zc, n = z.comps, params.m_plus_1
    out = []
    for s in range(n):
        up = (zc[s] + ((-zc[s]) & mask)) >> l
        out.append(up - c * ((-zc[s - 1]) & mask))
    return WideResidue(tuple(out), params)


def v_vector(params: GrpParams, slice_bits: int | None = None) -> tuple[int, ...]:
    """Reduction constants for the general-t path.

    Entry s (descending storage, pairing component s) is
    t0**(m-s) / (t0**(m+1) - 1) mod b, with t0 the least significant
    base-b digit of t.  b defaults to the full word, 2**w.
    """
    if slice_bits is None:
        slice_bits = params.w
    b = 1 << slice_bits
    t0 = params.t % b
    denom = t0 ** params.m_plus_1 - 1
    inv = modular_inverse(denom, b)
    m = params.m_plus_1 - 1
    return tuple((pow(t0, m - s, b) * inv) % b for s in range(params.m_plus_1))


def red1(z: WideResidue, slice_bits: int | None = None) -> WideResidue:
    """General-t reduction: divide components by b = 2**slice_bits.

    Only needs t even; one pass per word slice, applied q times for a
    full reduction.
    """
    params = z.params
    if slice_bits is None:
        slice_bits = params.w
    v = v_vector(params, slice_bits)
    mask = (1 << slice_bits) - 1
    t, zc, n = params.t, z.comps, params.m_plus_1

    u_prev = 0
    for s in range(n):
        u_prev = (u_prev + v[s] * (zc[s] & mask)) & mask
    out = []
    for s in range(n):
        vi = t * u_prev
        u_cur = (vi - zc[s]) & mask
        num = zc[s] + u_cur - vi
        if num & mask:
            raise ParameterError("inexact division in reduction")
        out.append(num >> slice_bits)
        u_prev = u_cur
    return WideResidue(tuple(out), params)


def kernel_source(params: GrpParams) -> str:
    """Python source of the field's modmul kernel, ``kernel(x, y)``.

    The kernel maps two component tuples to the components of
    modmul(x, y): the cvma_mul products over ``params.cvma_pairs``, then
    q passes of red3, all unrolled, with the cofactor product written as
    shift-and-add when ``params.c_shift_add`` gives c = 2**e +/- 1.
    Only storage indices are written into the text; the field constants
    are the names L, MASK, C and E, bound where the kernel is built.
    """
    n = params.m_plus_1
    xs = ", ".join(f"x{s}" for s in range(n))
    ys = ", ".join(f"y{s}" for s in range(n))
    lines = ["def kernel(x, y):", f"    {xs} = x", f"    {ys} = y"]
    for s, pairs in enumerate(params.cvma_pairs):
        terms = " + ".join(f"(x{sa} - x{sb}) * (y{sb} - y{sa})"
                           for sa, sb in pairs)
        lines.append(f"    z0_{s} = {terms}")
    sign = None if params.c_shift_add is None else params.c_shift_add[1]
    for r in range(1, params.q + 1):
        outs = []
        for s in range(n):
            low = f"z{r - 1}_{s - 1 if s else n - 1} & MASK"
            if sign is not None:
                lines.append(f"    w{r}_{s} = {low}")
                low = f"w{r}_{s}"
                cm = f"(({low} << E) {'+' if sign > 0 else '-'} {low})"
            else:
                cm = f"C * ({low})"
            outs.append(f"(z{r - 1}_{s} >> L) + {cm}")
        if r < params.q:
            lines += [f"    z{r}_{s} = {out}" for s, out in enumerate(outs)]
        else:
            lines.append("    return (" + ", ".join(outs) + ")")
    return "\n".join(lines) + "\n"


def _kernel(params: GrpParams
            ) -> tuple[Kernel, dict[str, int], tuple[Comps, Comps, Comps]]:
    """The field's modmul kernel, its trace and the components of the
    residues of b^(2q) mod p, 1 and b^q mod p: built once, kept on params."""
    built = params.modmul_kernel
    if built is None:
        namespace = {"L": params.l, "MASK": params.b - 1, "C": params.c}
        if params.c_shift_add is not None:
            namespace["E"] = params.c_shift_add[0]
        exec(kernel_source(params), namespace)
        b, q, p = params.b, params.q, params.p
        mont = tuple(to_residue(params, x).comps
                     for x in (pow(b, 2 * q, p), 1, pow(b, q, p)))
        built = params.modmul_kernel = (namespace["kernel"],
                                        modmul_trace(params), mont)
    return built


def modmul(x: Residue, y: Residue,
           counter: OpCounter = UNCOUNTED) -> Residue:
    """Full modular multiplication: product congruent to x*y*b**-q mod p.

    Runs the field's generated kernel; a counter receives modmul_trace.
    """
    params = _same_field(x, y)
    kernel, trace, _ = _kernel(params)
    counter.tally(trace)
    return _unchecked_residue(kernel(x.comps, y.comps), params)


def modmul_interleaved(x: Residue, y: Residue) -> Residue:
    """Interleaved multiplication and reduction, same contract as modmul.

    The x components are split into q base-b digits (signed top digit),
    least significant first, with a reduction after each digit pass.
    """
    params = _same_field(x, y)
    n, l, q, mask = params.m_plus_1, params.l, params.q, params.b - 1
    digits = []
    for comp in x.comps:
        row = [(comp >> (l * j)) & mask for j in range(q - 1)]
        row.append(comp >> (l * (q - 1)))
        digits.append(row)
    yc = y.comps
    z = [0] * n
    for j in range(q):
        for s in range(n):
            acc = 0
            for sa, sb in params.cvma_pairs[s]:
                acc += (digits[sa][j] - digits[sb][j]) * (yc[sb] - yc[sa])
            z[s] += acc
        z = list(red3(WideResidue(tuple(z), params)).comps)
    return Residue(tuple(z), params)


def add(x: Residue, y: Residue) -> Residue:
    """Componentwise sum; no reduction, the next modmul absorbs the growth."""
    params = _same_field(x, y)
    return Residue(tuple(map(operator.add, x.comps, y.comps)), params)


def sub(x: Residue, y: Residue) -> Residue:
    params = _same_field(x, y)
    return Residue(tuple(map(operator.sub, x.comps, y.comps)), params)


def square(x: Residue, counter: OpCounter = UNCOUNTED) -> Residue:
    """Same code path as modmul: no common subexpressions to share."""
    return modmul(x, x, counter)


def to_montgomery(r: Residue) -> Residue:
    """Scale by b**q: modmul by the residue of b**2q."""
    params = r.params
    kernel, _, mont = _kernel(params)
    return _unchecked_residue(kernel(r.comps, mont[0]), params)


def from_montgomery(r: Residue) -> Residue:
    """Scale by b**-q: modmul by the residue of 1."""
    params = r.params
    kernel, _, mont = _kernel(params)
    return _unchecked_residue(kernel(r.comps, mont[1]), params)


def invert(x: Residue, counter: OpCounter = UNCOUNTED) -> Residue:
    """Montgomery-domain inverse by powering to p - 2.

    Fixed square-and-multiply ladder over the bits of p - 2: the
    operation sequence depends only on the field, not on x, and a
    counter receives modmul_trace once per square and per multiply.
    """
    params = x.params
    if canonical_value(x) == 0:
        raise ZeroInverseError("zero has no inverse")
    mul, trace, mont = _kernel(params)
    e = params.p - 2
    counter.tally(trace, e.bit_length() + e.bit_count())
    xc = x.comps
    acc = mont[2]  # b^q mod p, the Montgomery form of 1
    for i in range(e.bit_length() - 1, -1, -1):
        acc = mul(acc, acc)
        if (e >> i) & 1:
            acc = mul(acc, xc)
    return _unchecked_residue(acc, params)


def equals(x: Residue, y: Residue) -> bool:
    """Field equality, via the canonical representation."""
    _same_field(x, y)
    return canonical_value(x) == canonical_value(y)


def randomize(x: Residue, r: int) -> Residue:
    """Add r times the all-ones vector: same field element, fresh encoding."""
    params = x.params
    if type(r) is not int or not 0 <= r < params.t - 1:
        raise ParameterError(f"scaling factor {r!r} is not an int in [0, t-2]")
    comps = tuple(comp + r for comp in x.comps)
    return Residue(comps, params)


def modmul_trace(params: GrpParams) -> dict[str, int]:
    """Operation-class counts of one modmul, a function of params only.

    cvma_mul, then q red3 passes.  Per component a pass takes a mask, a
    shift and an add, plus the cofactor product c * low: one multiply,
    or a shift and an add when c = 2**e +/- 1.
    """
    n = params.m_plus_1
    trace = OpCounter(**_cvma_counts(n))
    cofactor = ({"mul": 1} if params.c_shift_add is None
                else {"shift": 1, "add": 1})
    trace.tally({"mask": 1, "shift": 1, "add": 1}, params.q * n)
    trace.tally(cofactor, params.q * n)
    if trace.mul < (n - 1) * n // 2:
        raise ParameterError("modmul counted fewer than m(m+1)/2 mults")
    return trace.as_dict()
