"""The three benchmark workloads: ladder, roundtrip and search.

Each workload builds its inputs from the seed, runs one operation at a
time through grpfield's public functions, and checks every result
against big-int arithmetic done here, independently of the library.
`api` is either the grpfield module (untraced) or a namespace of the
same functions wrapped in spans (traced), so one op body serves both.

Why these three:
- ladder: `invert` on the 511-bit field is ~700 chained `modmul`s, so
  it is bound by the `arith` kernels (cvma_mul, red3, Residue checks).
- roundtrip: a caller holding plain ints on the 243-bit field pays for
  conversion (psi, to/from Montgomery), add/sub and red3, which weigh
  far more here than in ladder.
- search: one cofactor candidate per op builds a GrpParams and runs
  Miller-Rabin, so it uses the `params` and `oracle` layers the other
  way round and `arith` does no work.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

from tracer import timed


def horner(comps, t: int) -> int:
    """Value of a descending-power component vector at t (big-int)."""
    acc = 0
    for comp in comps:
        acc = acc * t + comp
    return acc


def grp_prime(m_plus_1: int, l: int, c: int) -> int:
    t = (1 << l) * c
    return (t ** m_plus_1 - 1) // (t - 1)


def _small_primes(bound: int) -> list[int]:
    return [n for n in range(2, bound)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


# Trial-division bound of grpfield's primality test; used here only to
# sort search candidates into the classes whose costs differ.
SMALL_PRIMES = _small_primes(1000)


def modmul_parts(gf, tracer, x, y) -> None:
    """Time modmul and its parts (cvma_mul, red3, Residue) on x, y.

    modmul is one library call, so its parts are replayed on the same
    operands; the self sample is modmul minus the replayed parts.
    """
    params = x.params
    z, cvma_ns = timed(gf.cvma_mul, x, y)
    parts_ns = cvma_ns
    for _ in range(params.q):
        z, ns = timed(gf.red3, z)
        tracer.add("arith.red3", ns)
        parts_ns += ns
    _, residue_ns = timed(gf.Residue, z.comps, params)
    _, modmul_ns = timed(gf.modmul, x, y)
    tracer.add("arith.cvma_mul", cvma_ns)
    tracer.add("params.residue_new", residue_ns)
    tracer.add("arith.modmul", modmul_ns)
    tracer.add("arith.modmul.self", modmul_ns - parts_ns - residue_ns
               + (params.q + 1) * tracer.timer_ns)


def search_parts(gf, tracer, m_plus_1: int, l: int, item,
                 search_ns: int) -> None:
    """Time the parts of one search_grps candidate: params_new, then
    64-round Miller-Rabin with the seed search_grps uses.

    The self sample is the search_grps time minus its replayed parts.
    """
    c, p, prime = item
    _, params_ns = timed(gf.params_new, m_plus_1, l, c, require_prime=False)
    rng = random.Random(0)
    _, prime_ns = timed(gf.is_probable_prime, p, 64, rng)
    tracer.add("params.params_new", params_ns)
    tracer.add("oracle.is_probable_prime." + ("prime" if prime else
                                              "composite"), prime_ns)
    tracer.add("tables.search_grps.self",
               search_ns - params_ns - prime_ns + tracer.timer_ns)


class Ladder:
    name = "ladder"
    field = (11, 42, 513)       # phi(11, 2^42*513), 511 bits
    pass_size = 16
    warmup = 1
    window = (11, 42, 513, 576)  # cofactor window for the search probe
    replays = 4                  # modmul part replays per traced op
    calibration = ("residue",)   # loops of calibration.py

    def setup(self, gf, seed: int) -> SimpleNamespace:
        rng = random.Random(seed)
        params = gf.params_new(*self.field, rng=random.Random(seed))
        p = params.p
        mont_r = pow(params.b, params.q, p)
        plain, items = [], []
        for _ in range(self.pass_size):
            a = rng.randrange(1, p)
            plain.append(a)
            # invert maps a*R to a^-1*R, R = b^q the Montgomery factor.
            items.append((gf.to_montgomery(gf.psi(params, a)),
                          pow(a, -1, p) * mont_r % p))
        return SimpleNamespace(params=params, items=items, plain=plain,
                               window=self.window)

    def op(self, api, state, item):
        return api.invert(item[0])

    def check(self, state, item, out) -> bool:
        params = state.params
        return (out.params == params
                and horner(out.comps, params.t) % params.p == item[1])

    def raw(self, item, out) -> bytes:
        return repr(out.comps).encode()

    def replay(self, gf, tracer, state, item, out) -> None:
        for _ in range(self.replays):
            modmul_parts(gf, tracer, item[0], item[0])


class Roundtrip:
    name = "roundtrip"
    field = (5, 59, 3)           # phi(5, 2^59*3), 243 bits
    pass_size = 1024
    warmup = 64
    window = (5, 59, 1, 3)       # every cofactor this l admits
    calibration = ("residue",)

    def setup(self, gf, seed: int) -> SimpleNamespace:
        rng = random.Random(seed)
        params = gf.params_new(*self.field, rng=random.Random(seed))
        p = params.p
        items = []
        for _ in range(self.pass_size):
            a, b = rng.randrange(p), rng.randrange(p)
            items.append((a, b, (a * b + a - b) % p))
        return SimpleNamespace(params=params, items=items,
                               plain=[a for a, _, _ in items],
                               window=self.window)

    def op(self, api, state, item):
        params = state.params
        x = api.to_montgomery(api.psi(params, item[0]))
        y = api.to_montgomery(api.psi(params, item[1]))
        z = api.from_montgomery(api.add(api.modmul(x, y), api.sub(x, y)))
        return api.canonical_value(z), z, x, y

    def check(self, state, item, out) -> bool:
        value, z = out[0], out[1]
        params = state.params
        return (value == item[2] and z.params == params
                and horner(z.comps, params.t) % params.p == item[2])

    def raw(self, item, out) -> bytes:
        return repr(out[1].comps).encode()

    def replay(self, gf, tracer, state, item, out) -> None:
        modmul_parts(gf, tracer, out[2], out[3])


class Search:
    name = "search"
    m_plus_1, l = 5, 40          # t = 2^40 * c, c just above 2^20
    c_base = 1 << 20
    # Candidates per pass by class, in the proportions a contiguous scan
    # near 2^20 shows (1.5% prime, 22.5% composite with no factor below
    # 1000, the rest caught by trial division).  A fixed mix keeps the
    # work per pass the same for every seed: the prime count of one
    # contiguous block varies by seed more than the bounds allow.
    mix = {"prime": 15, "mr": 225, "sieved": 760}
    warmup = 50
    window_size = 500
    # ~2/3 of the time is Miller-Rabin's modular powering, in C.
    calibration = ("residue", "powering")

    def setup(self, gf, seed: int) -> SimpleNamespace:
        rng = random.Random(seed)
        c0 = self.c_base + 1 + rng.randrange(self.c_base // 2)
        need = dict(self.mix)
        items = []
        c = c0
        while any(need.values()):
            p = grp_prime(self.m_plus_1, self.l, c)
            if pow(3, p - 1, p) == 1:        # Fermat base 3
                kind = "prime"
            elif any(p % d == 0 for d in SMALL_PRIMES):
                kind = "sieved"
            else:
                kind = "mr"
            if need[kind]:
                need[kind] -= 1
                items.append((c, p, kind == "prime"))
            c += 1
        first_prime = next(c for c, _, prime in items if prime)
        params = gf.params_new(self.m_plus_1, self.l, first_prime,
                               rng=random.Random(seed))
        return SimpleNamespace(
            params=params, items=items,
            plain=[rng.randrange(1, params.p) for _ in range(64)],
            window=(self.m_plus_1, self.l, c0, c0 + self.window_size - 1))

    def op(self, api, state, item):
        c = item[0]
        return api.search_grps(self.m_plus_1, self.l, c, c, max_results=1)

    def check(self, state, item, out) -> bool:
        c, p, prime = item
        if not prime:
            return out == []
        return len(out) == 1 and out[0].c == c and out[0].p == p

    def raw(self, item, out) -> bytes:
        return repr((item[0], [f.p for f in out])).encode()

    def replay(self, gf, tracer, state, item, out) -> None:
        search_parts(gf, tracer, self.m_plus_1, self.l, item,
                     tracer.last("tables.search_grps"))

WORKLOADS = {w.name: w for w in (Ladder(), Roundtrip(), Search())}
