"""Straight-line power chains: invert's program for x -> x^(p - 2).

A chain is a tuple of steps over a few reused slots, each step a run of
squarings of one slot, then optionally a product with another (see
Step); arith.invert runs it with the field's modmul kernel, one kernel
call per squaring or product, so the count is ``PowerChain.modmuls``.
Two generators emit chains: window_chain, a left-to-right sliding
window over the bits of e (HAC Alg. 14.85, the width in 1..6 with the
fewest modmuls), and repunit_chain, which follows the form
p = 1 + t + ... + t^m: an Itoh-Tsujii chain of "raise to t^k, then
multiply" steps, raising to t being c's sliding window and l squarings
(Itoh-Tsujii, Inf. Comput. 78, 1988; Bernstein's inversion chain for
2^255 - 19 exploits the same runs).  power_chain keeps the one with
fewer modmuls, the window chain on a tie, and checks it by replaying
its steps on integer exponents.  Both read only p's parameters, so the
steps, and with them invert's operation sequence, depend on the field
alone.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ParameterError
from .params import GrpParams

# One step of a power chain, (squarings, dst, src, factor): slot dst gets
# slot src squared `squarings` times, then times slot factor unless factor
# is None; both slots are read before dst is written.
Step = tuple[int, int, int, int | None]


class PowerChain(NamedTuple):
    """A straight-line program for x -> x^e over reused slots.

    Every slot starts holding x; the steps run in order (see Step), and
    the last step's dst holds x^e.  A run of squarings is one step.
    """

    steps: tuple[Step, ...]
    slots: int                   # slots the steps use, slot 0 first
    modmuls: int                 # squarings plus factors over all steps


def _chain(steps: list[Step]) -> PowerChain:
    """The chain of these steps, with its slot and modmul counts."""
    slots = 1 + max(slot for step in steps for slot in step[1:]
                    if slot is not None)
    return PowerChain(tuple(steps), slots, sum(
        squarings + (factor is not None)
        for squarings, _, _, factor in steps))


def _emit(steps: list[Step], squarings: int, dst: int, src: int,
          factor: int | None) -> None:
    """Append a step, folded into the last one when that one writes dst
    with no factor and this one continues from dst into dst with a
    factor other than dst: the intermediate value is never read."""
    if steps and src == dst != factor:
        last_squarings, last_dst, last_src, last_factor = steps[-1]
        if last_dst == dst and last_factor is None:
            steps[-1] = (last_squarings + squarings, dst, last_src, factor)
            return
    steps.append((squarings, dst, src, factor))


def _sliding_windows(e: int, width: int) -> tuple[tuple[int, int], ...]:
    """The windows (squarings, odd digit or 0) of e >= 1 at this width
    (HAC Alg. 14.85): from the top bit down, each the longest run of at
    most width bits that starts and ends with a 1, its squarings the
    bits from the previous window's end to its own."""
    bits = format(e, "b")
    windows, done = [], 0
    start = bits.find("1")
    while start >= 0:
        end = bits.rfind("1", start, start + width) + 1
        windows.append((end - done, int(bits[start:end], 2)))
        done, start = end, bits.find("1", end)
    if done < len(bits):
        windows.append((len(bits) - done, 0))
    windows[0] = (0, windows[0][1])  # x^d0 is a table entry: no squaring
    return tuple(windows)


def _best_windows(e: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The width in 1..6 and its windows for e with the fewest modmuls
    (the smaller width on a tie): a table of width > 1 costs x*x and
    2^(width-1) - 1 products, then each later window its squarings and
    a multiply unless its digit is 0."""
    def cost(width: int) -> int:
        table = 0 if width == 1 else 1 << (width - 1)
        return table + sum(squarings + (digit != 0)
                           for squarings, digit in windows[width][1:])
    windows = {width: _sliding_windows(e, width) for width in range(1, 7)}
    width = min(windows, key=cost)
    return width, windows[width]


def _window_steps(steps: list[Step],
                  chosen: tuple[int, tuple[tuple[int, int], ...]],
                  base: int, acc: int, spare: int) -> None:
    """Emit the sliding-window steps, for the width and windows of some e
    that _best_windows chose, that leave base^e in slot acc: the
    odd powers base^3, ..., base^(2^width - 1) go to the slots from
    spare on (acc holds base^2 while they are built), then each window
    squares acc and multiplies by the entry of its odd digit."""
    width, windows = chosen
    odd = [base, *range(spare, spare + (1 << (width - 1)) - 1)]
    if width > 1:
        _emit(steps, 1, acc, base, None)
        for j in range(1, len(odd)):
            _emit(steps, 0, odd[j], odd[j - 1], acc)
    (_, first), *rest = windows
    src = odd[first >> 1]
    for squarings, digit in rest:
        _emit(steps, squarings, acc, src, odd[digit >> 1] if digit else None)
        src = acc
    if src != acc:  # e is one table entry
        _emit(steps, 0, acc, src, None)


def window_chain(e: int) -> PowerChain:
    """x^e by sliding windows over the bits of e (width 1 is the binary
    ladder started from x)."""
    steps: list[Step] = []
    _window_steps(steps, _best_windows(e), 0, 1, 2)
    return _chain(steps)


def repunit_chain(l: int, c: int, m: int) -> PowerChain:
    """x^(p - 2) for p = 1 + t + ... + t^m, t = 2^l * c, from
    p - 2 = t^2 * R(t) + (t - 1) with R(t) = 1 + t + ... + t^(m-2).

    A = x^(t-1) by sliding windows and C = (A*x)^t; then Itoh-Tsujii
    over the bits of m - 1 builds E = C^R(t) from y_1 = C by
    y_2k = y_k^(t^k) * y_k and y_(k+1) = y_k^t * C; the result is E*A.
    Raising to t is c's sliding windows, then l squarings.  Slots: 0
    holds x, then C; 1 holds A; 2..4 rotate as y and the two slots a
    raise to t^k alternates between; c's table starts at 5.
    """
    steps: list[Step] = []
    c_windows = _best_windows(c)

    def raise_t(src: int, dst: int) -> None:
        _window_steps(steps, c_windows, src, dst, 5)
        _emit(steps, l, dst, dst, None)

    def raise_t_power(y: int, k: int) -> int:
        """The slot left holding y^(t^k): k raises to t, from y into one
        rotating slot, then back and forth between it and the other."""
        src, (dst, other) = y, [s for s in (2, 3, 4) if s != y][:2]
        for _ in range(k):
            raise_t(src, dst)
            src, dst = dst, other if src == y else src
        return src

    t = c << l
    _window_steps(steps, _best_windows(t - 1), 0, 1, 2)
    _emit(steps, 0, 2, 1, 0)  # x^t
    raise_t(2, 0)  # C = x^(t^2)
    y, k = 0, 1  # slot of y_k = C^(1 + t + ... + t^(k-1))
    for bit in format(m - 1, "b")[1:]:
        r = raise_t_power(y, k)
        _emit(steps, 0, r, r, y)
        y, k = r, 2 * k
        if bit == "1":
            r = raise_t_power(y, 1)
            _emit(steps, 0, r, r, 0)
            y, k = r, k + 1
    _emit(steps, 0, y, y, 1)
    return _chain(steps)


def chain_exponent(chain: PowerChain) -> int:
    """The e of x^e that chain computes: its steps replayed on the
    exponents, a squaring doubling one and a factor adding its own."""
    exponents = [1] * chain.slots
    for squarings, dst, src, factor in chain.steps:
        exponents[dst] = (exponents[src] << squarings) + (
            0 if factor is None else exponents[factor])
    return exponents[dst]


def power_chain(params: GrpParams) -> PowerChain:
    """invert's program for x^(p - 2): the repunit chain when it takes
    fewer modmuls than the window chain, else the window chain.  Raises
    ParameterError unless the chosen program replays to p - 2."""
    chain = min(window_chain(params.p - 2),
                repunit_chain(params.l, params.c, params.m_plus_1 - 1),
                key=lambda chain: chain.modmuls)
    if chain_exponent(chain) != params.p - 2:
        raise ParameterError(f"invert's chain for {params.label()} does "
                             "not compute x^(p - 2)")
    return chain
