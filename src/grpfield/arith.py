"""Residue multiplication, reduction and auxiliary field operations.

The multiplication step computes each product component from m/2
difference products; reduction divides components by b = 2**l while
staying in the same congruence class modulo t**(m+1) - 1.  A full
modular multiplication is the multiplication step followed by q
reductions, so results carry a b**-q factor: all field arithmetic
happens in the Montgomery domain, where the factor cancels.
modmul_interleaved runs the same two steps, cvma_mul and red3 and no
copy of either, once per base-b digit slice of x.

Every operation executes the same sequence of primitive operations
regardless of the input values.  On its first use a field builds one
generated module (:func:`kernel_source`) of six straight-line kernels:
``modmul``, cvma_mul then q passes of red3, each written as red3's own
definition and tested against it; ``digits``, the base-t conversion
that to_residue and psi run; ``to_montgomery`` and ``from_montgomery``;
and ``add`` and ``sub``, which also test their result's slack range.
The module is parsed, walked, compiled and run once: the walk
(:func:`kernel_ops`) checks all six kernels against the kernel grammar
and tallies modmul's tree, so the code that runs is the code that was
checked.  Op counts are static: :func:`kernel_cost` gives the tally of
cvma, modmul, square and invert, so no call counts anything.
OpCounter, UNCOUNTED and the counter parameters of invert, cvma_mul and
bench.montgomery_modmul stay for perfbench, which reads counts through
them; only the loops cvma_mul and montgomery_modmul keep closed-form
tallies.
``invert`` powers to the public exponent p - 2 by the field's power
chain (:mod:`grpfield.chain`): a straight-line program over a few
slots, built from p alone, that follows the repunit form of p where
that takes fewer modmuls than a sliding window over the bits of p - 2,
every squaring or product one modmul kernel call.  Its results are the
same field elements as a binary ladder's, in another redundant
encoding.  It refuses a field whose p was not proven prime.
Each Montgomery conversion is one call of its kernel, one native
mulmod (HAC 14.3.2, Alg. 14.36): the residue's value at t, by unrolled
Horner steps, times b^q mod p (``to_montgomery``) or b^-q mod p
(``from_montgomery``), reduced by p, then the digit kernel's steps.  So
both return psi's digit encoding of their result, whatever the input's
encoding; randomize draws a fresh one.  The base-t conversions
to_residue and psi live here, not in params, because they run the
digit kernel.  ``params.modmul_kernel``, the field's one cache, holds
the six kernels, the cost table and invert's chain for p - 2
(:class:`FieldKernels`, ``chain.power_chain``); the first conversion or
operation on a field builds them all, and :func:`_kernel` keeps them
through ``params._keep_kernels``, since a GrpParams is frozen.  A copy
of a field is the field, so it shares them.

This is the one module that builds a Residue without the checked
constructor, and only on the per-op paths psi, to_residue, modmul,
to_montgomery, from_montgomery, add, sub and randomize: each builds its
Residue inline from ``object.__new__`` and params' two slot setters.
invert and modmul_interleaved return through the constructor.  The
multiplying, conversion and digit kernels' outputs stay in the slack
range, as the tests check on slack-edge inputs.  add, sub and
randomize can leave it, so their kernel tests the range as it computes
the result, and a result outside it raises the constructor's
ParameterError; the constructor's type and length checks hold there by
construction (m+1 exact ints combined by + and -).  An unstable field's
range is -inf to inf, which every result passes.  Every operation on
field elements refuses operands that are not Residues, and every
operation on two (cvma_mul too) refuses operands from two fields.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

from .chain import PowerChain, power_chain
from .errors import NotPrimeError, ParameterError, ZeroInverseError
from .params import (GrpParams, Residue, WideResidue, _field, _keep_kernels,
                     _set_comps, _set_params, _vector_field, canonical_value,
                     check_int, check_params)

Comps = tuple[int, ...]
# A field's generated kernels: component tuples in, a tuple out (the
# digit kernel takes an int, the conversions one tuple; add and sub also
# return whether the result is in the slack range).
Kernel = Callable[[Comps, Comps], Comps]
DigitKernel = Callable[[int], Comps]
Conversion = Callable[[Comps], Comps]
# The generated kernel module is compiled under this filename, so a
# tracer or traceback can tell its frames apart.
KERNEL_FILENAME = "<grpfield kernel>"
# The unchecked Residue of a kernel's result is built inline on each op
# from object.__new__, bound here once, and params' two slot setters:
# a helper function around the three would add a call to every op.
_new = object.__new__


@dataclass
class OpCounter:
    """Counts of primitive operation classes executed.  It stays only
    because perfbench reads counts through the counter parameters of
    invert, cvma_mul and bench.montgomery_modmul; kernel_cost is where
    the library keeps its counts."""

    mul: int = 0
    add: int = 0
    shift: int = 0
    mask: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def tally(self, counts: dict[str, int]) -> None:
        """Add one run of an operation sequence with these counts."""
        for name, count in counts.items():
            setattr(self, name, getattr(self, name) + count)


class _Uncounted(OpCounter):
    """The default counter of those three parameters: drops every tally."""

    def tally(self, counts: dict[str, int]) -> None:
        pass


UNCOUNTED = _Uncounted()
# OpCounter's classes, the keys of every kernel_cost entry.
_COUNTED = ("mul", "add", "shift", "mask")


def _cvma_counts(m_plus_1: int) -> dict[str, int]:
    """cvma_mul's tally, a closed form because cvma_mul is a loop: per
    component, m/2 products of two differences and m/2 - 1 adds."""
    h = (m_plus_1 - 1) // 2
    return {"mul": m_plus_1 * h, "add": m_plus_1 * (3 * h - 1),
            "shift": 0, "mask": 0}


def _same_field(x: Residue, y: Residue) -> GrpParams:
    """The field of both Residues; raises as _field does, or if they come
    from two fields.  The per-op paths test two Residues of one params
    object inline and call this (or _field) only when that fails."""
    if type(x) is not Residue or type(y) is not Residue:
        _field(x)  # raises for the one that is not; no call when both are
        _field(y)
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
    params = _same_field(x, y)
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
    The generated modmul kernel writes each of its q passes as this
    expression.  In hardware a cofactor c = 2**e +/- 1 makes c times the
    low word a shift and an add; in CPython the multiply measured faster.
    ParameterError unless z is a Residue or a WideResidue, as red2 and
    red1.
    """
    params = _vector_field(z)
    l, c, mask = params.l, params.c, params.b - 1
    zc = z.comps  # zc[s - 1] wraps to the constant term at s = 0
    return WideResidue(tuple((zc[s] >> l) + c * (zc[s - 1] & mask)
                             for s in range(params.m_plus_1)), params)


def red2(z: WideResidue) -> WideResidue:
    """Variant of red3 rounding the shifted term up instead of down."""
    params = _vector_field(z)
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
    ParameterError unless params is a GrpParams and slice_bits an int
    >= 1.
    """
    check_params(params)
    if slice_bits is None:
        slice_bits = params.w
    check_int("slice_bits", slice_bits, 1)
    b = 1 << slice_bits
    t0 = params.t % b
    denom = t0 ** params.m_plus_1 - 1
    inv = pow(denom, -1, b)  # denom is odd: t0 is even
    m = params.m_plus_1 - 1
    return tuple((pow(t0, m - s, b) * inv) % b for s in range(params.m_plus_1))


def red1(z: WideResidue, slice_bits: int | None = None) -> WideResidue:
    """General-t reduction: divide components by b = 2**slice_bits.

    Only needs t even; one pass per word slice, applied q times for a
    full reduction.  Refuses z and slice_bits as red3 and v_vector.
    """
    params = _vector_field(z)
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
        # (z + ((vi - z) & mask) - vi) & mask is 0: the shift is exact.
        out.append((zc[s] + u_cur - vi) >> slice_bits)
        u_prev = u_cur
    return WideResidue(tuple(out), params)


def kernel_source(params: GrpParams) -> str:
    """Python source of the field's kernel module: six straight-line
    functions, all unrolled, on component tuples of ``params``.

    - ``modmul(x, y)``, the components of modmul(x, y): the cvma_mul
      products over ``params.cvma_pairs``, assigned to z0_0 ... z0_m and
      to no other name, then q passes of red3 as red3 defines it:
      component s of pass r is ``(z{r-1}_s >> L) + C * (z{r-1}_{s-1} &
      MASK)``, with s - 1 taken cyclically.
    - ``digits(x)``, an int x in [0, t^(m+1) - 1) to its least-absolute-
      residue digits, highest power first: the m+1 steps
      ``x, d = divmod(x + H, T)`` of the digit loop, with the carry left
      in x folded onto the t^0 digit.  The m+1 additions of H = t/2 are
      made as one addition of HP = H*p up front (p is 1 + t + ... + t^m),
      which leaves every quotient and remainder as it was.
    - ``to_montgomery(x)`` and ``from_montgomery(x)``: the value of the
      components x at t, by unrolled Horner steps, times R = b^q mod p or
      RI = b^-q mod p, reduced by P = p, then HP and digits' m+1 steps.
    - ``add(x, y)`` and ``sub(x, y)``: the tuple of z_s = x_s +/- y_s, and
      whether LO <= z_s <= HI holds for every one of them; an in-range
      result runs every comparison.

    Only storage indices are written into the text; the field constants
    are the names L, MASK, C, T, H, HP, P, R, RI, LO and HI, bound
    where the module is built.
    """
    n = params.m_plus_1
    xs, ys, zs = (", ".join(f"{v}{s}" for s in range(n)) for v in "xyz")
    unpack = [f"    {xs} = x", f"    {ys} = y"]
    lines = ["def modmul(x, y):", *unpack]
    for s, pairs in enumerate(params.cvma_pairs):
        lines.append(f"    z0_{s} = " + " + ".join(
            f"(x{sa} - x{sb}) * (y{sb} - y{sa})" for sa, sb in pairs))
    for r in range(1, params.q + 1):
        outs = [f"(z{r - 1}_{s} >> L) + C * (z{r - 1}_{(s - 1) % n} & MASK)"
                for s in range(n)]
        if r < params.q:
            lines += [f"    z{r}_{s} = {out}" for s, out in enumerate(outs)]
        else:
            lines.append("    return (" + ", ".join(outs) + ")")
    steps = [f"    x, d{i} = divmod(x, T)" for i in range(n)]
    digits = [f"d{i} - H" for i in range(n - 1, 0, -1)] + ["d0 - H + x"]
    steps.append("    return (" + ", ".join(digits) + ")")
    lines += ["def digits(x):", "    x += HP", *steps]
    value = "x0"
    for s in range(1, n):
        value = f"({value} * T + x{s})"
    for name, factor in (("to_montgomery", "R"), ("from_montgomery", "RI")):
        lines += [f"def {name}(x):", f"    {xs} = x",
                  f"    x = {value} * {factor} % P + HP", *steps]
    tests = " and ".join(f"LO <= z{s} <= HI" for s in range(n))
    for name, op in (("add", "+"), ("sub", "-")):
        lines += [f"def {name}(x, y):", *unpack]
        lines += [f"    z{s} = x{s} {op} y{s}" for s in range(n)]
        lines.append(f"    return ({zs}), {tests}")
    return "\n".join(lines) + "\n"


# The kernel grammar, what kernel_source emits: each operator with its
# op class (mul, add, shift and mask are OpCounter's; % is a divmod),
# and the other nodes allowed.  Beyond these, a Name is a leaf, a Call
# must be to divmod, and the module holds nothing but defs of plain
# positional parameters.
_OP_CLASS = {ast.Mult: "mul", ast.Add: "add", ast.Sub: "add",
             ast.RShift: "shift", ast.BitAnd: "mask",
             ast.Mod: "divmod", ast.LtE: "compare"}
_PLAIN_NODES = frozenset((
    ast.Assign, ast.AugAssign, ast.Return, ast.Tuple, ast.Load, ast.Store,
    ast.BinOp, ast.Compare, ast.BoolOp, ast.And))
_OPS = ("mul", "add", "shift", "mask", "divmod", "compare")


def kernel_ops(tree: ast.Module) -> dict[str, dict[str, int]]:
    """Op counts of a generated module's syntax tree, walked once: for
    each function it defines, by name, its mul, add (+ and -), shift
    (>>), mask (&), divmod (divmod and %) and compare (<=); and
    under "z0_" those of the assignments to names that start with z0_
    (the modmul kernel's difference products).

    The kernels are straight-line code, so these are the operations
    every call executes.  ParameterError for a module-level statement
    that is not a def, a def whose signature is more than plain
    positional parameters (its decorators, defaults and annotations run
    once, when the module does), or any node outside the kernel grammar
    (the comment on _OP_CLASS): a branch, loop, attribute, other call,
    constant or operator could make the count depend on the data.
    """
    ops = {"z0_": dict.fromkeys(_OPS, 0)}
    stack = []
    for node in tree.body:
        if type(node) is not ast.FunctionDef:
            raise ParameterError(f"module-level {type(node).__name__} is "
                                 "outside the kernel grammar")
        args = node.args
        # type_params holds the T of a def f[T](x), on Python 3.12+
        if (node.decorator_list or node.returns
                or getattr(node, "type_params", None) or args.posonlyargs
                or args.vararg or args.kwonlyargs or args.kwarg
                or args.defaults or any(arg.annotation for arg in args.args)):
            raise ParameterError(f"def {node.name} has a signature outside "
                                 "the kernel grammar: only plain "
                                 "positional parameters")
        ops[node.name] = dict.fromkeys(_OPS, 0)
        stack += [(item, ops[node.name], None) for item in node.body]
    while stack:
        node, whole, part = stack.pop()
        kind = type(node)
        if kind is ast.Name:
            continue
        if kind is ast.Call and type(node.func) is ast.Name \
                and node.func.id == "divmod" and not node.keywords:
            op, fields = "divmod", ("args",)
        else:
            op = _OP_CLASS.get(kind)
            if op is None and kind not in _PLAIN_NODES:
                raise ParameterError(
                    f"{kind.__name__} is outside the kernel grammar")
            if kind is ast.Assign and type(node.targets[0]) is ast.Name \
                    and node.targets[0].id.startswith("z0_"):
                part = ops["z0_"]
            fields = kind._fields
        if op is not None:
            whole[op] += 1
            if part is not None:
                part[op] += 1
        for field in fields:
            child = getattr(node, field)
            if type(child) is list:
                stack += [(item, whole, part) for item in child]
            elif child is not None and type(child) is not str:
                stack.append((child, whole, part))
    return ops


class FieldKernels(NamedTuple):
    """A field's one cache, ``params.modmul_kernel``."""

    modmul: Kernel
    cost: dict[str, dict[str, int]]  # kernel_cost's table
    to_montgomery: Conversion    # psi of the value times b^q mod p
    from_montgomery: Conversion  # psi of the value times b^-q mod p
    chain: PowerChain            # invert's power_chain(params)
    digits: DigitKernel          # to_residue's base-t digits
    # componentwise x + y and x - y, each with whether every component
    # of the result is in params.slack_range
    add: Callable[[Comps, Comps], tuple[Comps, bool]]
    sub: Callable[[Comps, Comps], tuple[Comps, bool]]


def _kernel(params: GrpParams) -> FieldKernels:
    """The field's kernels, cost table and inversion chain: built once,
    kept on params by params._keep_kernels.  The per-op paths read
    ``params.modmul_kernel`` first and call this only to build it, which
    saves a call on every op.
    kernel_source's module is parsed, walked, compiled and run once; the
    cost table is the walk's tally of the modmul kernel, cvma that of
    its z0_ products.  ParameterError, and nothing kept, if the walk
    refuses a node, or the modmul kernel holds a divmod (or %) or a
    compare or fewer than the paper's m(m+1)/2 multiplies.
    A field with no slack range bounds add and sub by -inf and inf,
    which CPython compares with ints exactly."""
    built = params.modmul_kernel
    if built is None:
        b, p, t, n = params.b, params.p, params.t, params.m_plus_1
        tree = ast.parse(kernel_source(params))
        ops = kernel_ops(tree)
        if ops["modmul"]["divmod"] or ops["modmul"]["compare"]:
            raise ParameterError("modmul kernel holds a divmod or a compare")
        if ops["z0_"]["mul"] < (n - 1) * n // 2:
            raise ParameterError("modmul counted fewer than m(m+1)/2 mults")
        modmul = {name: ops["modmul"][name] for name in _COUNTED}
        square = dict(modmul)
        chain = power_chain(params)
        squarings = sum(step[0] for step in chain.steps)
        factors = chain.modmuls - squarings
        cost = {"cvma": {name: ops["z0_"][name] for name in _COUNTED},
                "modmul": modmul, "square": square,
                "invert": {name: squarings * square[name]
                           + factors * modmul[name] for name in _COUNTED}}
        lo, hi = params.slack_range or (-math.inf, math.inf)
        names = {"L": params.l, "MASK": b - 1, "C": params.c, "T": t,
                 "H": t >> 1, "HP": (t >> 1) * p, "P": p,
                 "R": pow(b, params.q, p), "RI": pow(b, -params.q, p),
                 "LO": lo, "HI": hi}
        exec(compile(tree, KERNEL_FILENAME, "exec"), names)
        built = FieldKernels(
            names["modmul"], cost, names["to_montgomery"],
            names["from_montgomery"], chain, names["digits"], names["add"],
            names["sub"])
        _keep_kernels(params, built)
    return built


def _slack_checked(result: tuple[Comps, bool],
                   params: GrpParams) -> Residue:
    """The Residue of an add or sub kernel's (components, in range)
    result: ParameterError, as the checked constructor raises, if a
    component left the slack range."""
    comps, in_range = result
    if not in_range:
        raise ParameterError("component outside additive slack range")
    out = _new(Residue)
    _set_comps(out, comps)
    _set_params(out, params)
    return out


def to_residue(params: GrpParams, x: int) -> Residue:
    """Base-t conversion with least-absolute-residue digits.

    Every component ends up in [-t/2, t/2]; only the constant-term digit
    can reach the upper bound, via the final wrap of the t**(m+1) carry.
    Runs the field's digit kernel (see kernel_source): one divmod per
    digit, with no branch on the value.
    """
    check_params(params)
    if type(x) is not int or not 0 <= x < params.ring_modulus:
        raise ParameterError(
            f"value {x!r} is not an int in [0, t^(m+1) - 1)")
    built = params.modmul_kernel or _kernel(params)
    out = _new(Residue)
    _set_comps(out, built.digits(x))
    _set_params(out, params)
    return out


def psi(params: GrpParams, x: int) -> Residue:
    """Residue of a canonical field element (x taken modulo p if it is an
    int; to_residue refuses any other type, and a params that is not a
    GrpParams)."""
    if type(params) is not GrpParams or type(x) is not int:
        return to_residue(params, x)  # raises its ParameterError
    built = params.modmul_kernel or _kernel(params)
    out = _new(Residue)
    _set_comps(out, built.digits(x % params.p))
    _set_params(out, params)
    return out


def modmul(x: Residue, y: Residue) -> Residue:
    """Full modular multiplication: product congruent to x*y*b**-q mod p.

    Runs the field's generated kernel, whose op counts are
    kernel_cost's modmul entry.
    """
    params = (x.params if type(x) is Residue and type(y) is Residue
              and x.params is y.params else _same_field(x, y))
    built = params.modmul_kernel or _kernel(params)
    out = _new(Residue)
    _set_comps(out, built.modmul(x.comps, y.comps))
    _set_params(out, params)
    return out


def modmul_interleaved(x: Residue, y: Residue) -> Residue:
    """Interleaved multiplication and reduction, same contract as modmul.

    The x components are split into q base-b digits (signed top digit),
    least significant first: each digit slice's cvma_mul product with y
    is added to the running sum, which one red3 pass then divides by b.
    """
    params = _same_field(x, y)
    l, mask = params.l, params.b - 1
    rest, z = x.comps, (0,) * params.m_plus_1
    for above in range(params.q - 1, -1, -1):  # digits above this slice
        digit = tuple(comp & mask for comp in rest) if above else rest
        rest = tuple(comp >> l for comp in rest)
        prod = cvma_mul(Residue(digit, params), y).comps
        z = red3(WideResidue(tuple(map(operator.add, z, prod)), params)).comps
    return Residue(z, params)


def add(x: Residue, y: Residue) -> Residue:
    """Componentwise sum; no reduction, the next modmul absorbs the growth.
    Runs the field's add kernel, which also tests that the sum is in the
    slack range: ParameterError if it is not."""
    params = (x.params if type(x) is Residue and type(y) is Residue
              and x.params is y.params else _same_field(x, y))
    built = params.modmul_kernel or _kernel(params)
    return _slack_checked(built.add(x.comps, y.comps), params)


def sub(x: Residue, y: Residue) -> Residue:
    """Componentwise difference, as add."""
    params = (x.params if type(x) is Residue and type(y) is Residue
              and x.params is y.params else _same_field(x, y))
    built = params.modmul_kernel or _kernel(params)
    return _slack_checked(built.sub(x.comps, y.comps), params)


def square(x: Residue) -> Residue:
    """modmul(x, x), through the same kernel, so kernel_cost's square
    entry equals its modmul entry.  A squaring kernel could share each
    difference x_a - x_b between its two factors; it would change only
    the square entry."""
    return modmul(x, x)


def to_montgomery(r: Residue) -> Residue:
    """Scale by b**q: psi of r's value times b**q mod p, one native
    mulmod in the field's to_montgomery kernel.  The result has psi's
    digit encoding, whatever r's is."""
    params = r.params if type(r) is Residue else _field(r)
    built = params.modmul_kernel or _kernel(params)
    out = _new(Residue)
    _set_comps(out, built.to_montgomery(r.comps))
    _set_params(out, params)
    return out


def from_montgomery(r: Residue) -> Residue:
    """Scale by b**-q, as to_montgomery with b**-q mod p, in the field's
    from_montgomery kernel."""
    params = r.params if type(r) is Residue else _field(r)
    built = params.modmul_kernel or _kernel(params)
    out = _new(Residue)
    _set_comps(out, built.from_montgomery(r.comps))
    _set_params(out, params)
    return out


def invert(x: Residue, counter: OpCounter = UNCOUNTED) -> Residue:
    """Montgomery-domain inverse by powering to p - 2.

    Runs the field's power chain for p - 2 (see chain.power_chain):
    every slot starts as x, and each step squares one slot some times
    in the modmul kernel, optionally multiplies by a second, and stores
    the result in a slot.  The steps and every slot index come from p
    alone, so the operation sequence
    depends only on the field, not on x; a counter receives
    kernel_cost's invert entry.  NotPrimeError on a field whose p was
    not proven prime (built with require_prime=False): powering to p - 2
    inverts only modulo a prime.  The result goes through the checked
    Residue constructor.
    """
    params = _field(x)
    if not params.prime_checked:
        raise NotPrimeError(f"{params.label()} is not proven prime, "
                            "so invert has no inverse to give")
    if canonical_value(x) == 0:
        raise ZeroInverseError("zero has no inverse")
    built = params.modmul_kernel or _kernel(params)
    mul, chain = built.modmul, built.chain
    counter.tally(built.cost["invert"])
    slots = [x.comps] * chain.slots
    for squarings, dst, src, factor in chain.steps:
        acc = slots[src]
        for _ in range(squarings):
            acc = mul(acc, acc)
        if factor is not None:
            acc = mul(acc, slots[factor])
        slots[dst] = acc
    return Residue(acc, params)


def equals(x: Residue, y: Residue) -> bool:
    """Field equality, via the canonical representation."""
    _same_field(x, y)
    return canonical_value(x) == canonical_value(y)


def randomize(x: Residue, r: int) -> Residue:
    """Add r times the all-ones vector: same field element, fresh encoding.
    Runs the add kernel on (r, ..., r), so the result is bounded as
    add's.  It changes only the encoding of the operand: every cvma term
    is a product of differences x_a - x_b, from which the shift cancels,
    so cvma_mul and modmul of randomize(x, r) and y are bit-identical to
    those of x and y."""
    params = _field(x)
    if type(r) is not int or not 0 <= r < params.t - 1:
        raise ParameterError(f"scaling factor {r!r} is not an int in [0, t-2]")
    built = params.modmul_kernel or _kernel(params)
    return _slack_checked(built.add(x.comps, (r,) * params.m_plus_1), params)


def kernel_cost(params: GrpParams) -> dict[str, dict[str, int]]:
    """Static op counts, in OpCounter's classes, of one run of each of:

    - ``cvma``: the multiplication step, m(m+1)/2 word multiplies;
    - ``modmul``: cvma plus the q unrolled red3 passes;
    - ``square``: square's kernel, for now the modmul kernel;
    - ``invert``: invert's power chain, each squaring at the square
      cost and each product at the modmul cost.

    A function of params only: a copy of the table that _kernel tallies
    from the syntax tree of the modmul kernel it compiles, in the one
    walk that also checks that tree against the kernel grammar.
    ParameterError unless params is a GrpParams.
    """
    check_params(params)
    cost = (params.modmul_kernel or _kernel(params)).cost
    return {name: dict(ops) for name, ops in cost.items()}


def modmul_trace(params: GrpParams) -> dict[str, int]:
    """Operation-class counts of one modmul: kernel_cost's modmul entry.
    ParameterError unless params is a GrpParams."""
    return kernel_cost(params)["modmul"]
