"""Command-line front end.

Subcommands: `params` (tables, search, estimate, hw2), `selftest` and
`bench`.  Field specs use the grammar phi(M,2^L*C), e.g. phi(5,2^59*3);
the --param field of `selftest` and `bench` is a default GrpParams, so
it is proven prime.  Every subcommand takes --w (default 64) and --q
(default 2).  Exit codes: 0 success, 1 test failure, 2 usage error or a
composite --param.  `selftest` checks every pair of the toy field
phi(3,2^2*3) against the oracle, and a seeded sample of the --param
field, both at the given --w and --q.  Only `selftest` and `bench` take
--seed; the `params` searches draw no seed, since their primality test
takes its bases from each candidate.
"""

from __future__ import annotations

import argparse
import random
import re
import sys

from . import arith
from .bench import run_bench
from .errors import GrpError, ParameterError
from .params import DEFAULT_Q, DEFAULT_WORD_BITS, GrpParams, canonical_value
from .tables import (estimate_density, hw2_search, search_grps,
                     stability_rows_to_csv, stability_rows_to_json,
                     stability_table)

_SPEC_RE = re.compile(r"phi\(([0-9]+),2\^([0-9]+)(?:\*([0-9]+))?\)")


def parse_spec(text: str) -> tuple[int, int, int]:
    """Parse phi(M,2^L*C) into (m_plus_1, l, c); C defaults to 1."""
    match = _SPEC_RE.fullmatch(text)
    if match is None:
        raise ParameterError(
            f"bad field spec {text!r}; expected phi(M,2^L*C)")
    m_plus_1, l, c = match.groups()
    return int(m_plus_1), int(l), int(c) if c else 1


def _cmd_tables(args: argparse.Namespace) -> int:
    rows = stability_table(args.w, args.q, args.max_degree)
    if args.json:
        print(stability_rows_to_json(rows))
    else:
        print(stability_rows_to_csv(rows), end="")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    found = search_grps(args.m, args.l, args.c_min, args.c_max,
                        max_results=args.limit, w=args.w, q=args.q)
    for params in found:
        print(f"{params.label()} bits={params.bits}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    est = estimate_density(args.bits, args.w, args.q)
    print(f"bits={est.bits} m_plus_1={est.m_plus_1} k_max={est.k_max} "
          f"log_t_max={est.log_t_max:.4g} l_min={est.l_min} "
          f"interval={est.interval_size} p_prime={est.p_prime:.3g} "
          f"est_count={est.est_count:.3g}")
    return 0


def _cmd_hw2(args: argparse.Namespace) -> int:
    for params in hw2_search(args.bits, args.w, args.q):
        print(f"{params.label()} bits={params.bits} "
              f"slack_bits={params.slack_bits}")
    return 0


def _selftest_field(params: GrpParams, pairs) -> bool:
    """Oracle-equivalence sweep on one field: for each (a, b) in pairs,
    the Montgomery-domain product and the sum of psi(a) and psi(b) must
    be a * b % p and (a + b) % p."""
    p = params.p
    for a, b in pairs:
        xm = arith.to_montgomery(arith.psi(params, a))
        ym = arith.to_montgomery(arith.psi(params, b))
        prod = arith.from_montgomery(arith.modmul(xm, ym))
        if canonical_value(prod) != a * b % p:
            return False
        s = arith.add(arith.psi(params, a), arith.psi(params, b))
        if canonical_value(s) != (a + b) % p:
            return False
    return True


def _cmd_selftest(args: argparse.Namespace) -> int:
    toy = GrpParams(3, 2, 3, args.w, args.q)
    ok = _selftest_field(toy, ((a, b) for a in range(toy.p)
                               for b in range(a, toy.p)))
    print(f"exhaustive toy sweep: {'ok' if ok else 'FAIL'}")
    failures = not ok

    if args.param:
        params = GrpParams(*parse_spec(args.param), args.w, args.q)
        rng, p = random.Random(args.seed), params.p
        ok = _selftest_field(params, [(rng.randrange(p), rng.randrange(p))
                                      for _ in range(100)])
        print(f"{params.label()} sample: {'ok' if ok else 'FAIL'}")
        failures += not ok
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Time modmul against the CIOS baseline; print the report as JSON.

    The ratio compares the field's unrolled modmul kernel with a CIOS
    baseline that runs as loops.
    """
    params = GrpParams(*parse_spec(args.param), args.w, args.q)
    report = run_bench(params, iters=args.iters, runs=args.runs,
                       seed=args.seed)
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grpfield",
        description="Repunit-prime field arithmetic, parameter search "
                    "and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Word size and reductions per modmul, taken by every subcommand.
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--w", type=int, default=DEFAULT_WORD_BITS)
    field.add_argument("--q", type=int, default=DEFAULT_Q)

    params_p = sub.add_parser("params", help="parameter tables and searches")
    psub = params_p.add_subparsers(dest="params_command", required=True)

    tables_p = psub.add_parser("tables", parents=[field],
                               help="stable-parameter table")
    tables_p.add_argument("--max-degree", type=int, default=17)
    tables_p.add_argument("--json", action="store_true",
                          help="JSON in place of the default CSV")
    tables_p.set_defaults(func=_cmd_tables)

    search_p = psub.add_parser("search", parents=[field],
                               help="scan cofactors for primes")
    search_p.add_argument("--m", type=int, required=True,
                          help="field degree m+1 (odd prime)")
    search_p.add_argument("--l", type=int, required=True)
    search_p.add_argument("--c-min", type=int, required=True)
    search_p.add_argument("--c-max", type=int, required=True)
    search_p.add_argument("--limit", type=int, default=10)
    search_p.set_defaults(func=_cmd_search)

    est_p = psub.add_parser("estimate", parents=[field],
                            help="field-count estimate")
    est_p.add_argument("--bits", type=int, required=True)
    est_p.set_defaults(func=_cmd_estimate)

    hw2_p = psub.add_parser("hw2", parents=[field],
                            help="weight-2 cofactor search")
    hw2_p.add_argument("--bits", type=int, required=True)
    hw2_p.set_defaults(func=_cmd_hw2)

    self_p = sub.add_parser("selftest", parents=[field],
                            help="oracle-equivalence checks")
    self_p.add_argument("--param", help="field spec phi(M,2^L*C)")
    self_p.add_argument("--seed", type=int, default=0,
                        help="seeds the --param sample")
    self_p.set_defaults(func=_cmd_selftest)

    bench_p = sub.add_parser("bench", parents=[field],
                             help="time modmul vs baseline")
    bench_p.add_argument("--param", required=True,
                         help="field spec phi(M,2^L*C)")
    bench_p.add_argument("--iters", type=int, default=10_000)
    bench_p.add_argument("--runs", type=int, default=5)
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GrpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
