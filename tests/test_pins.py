"""Output pins: sha256 digests of outputs that every refactor must keep
bit-identical.  A change to any output they cover changes a digest, so a
change meant to alter one of them updates its digest with the reason."""

import hashlib

from grpfield import (GrpParams, cvma_mul, invert, modmul,
                      modmul_interleaved, psi, red1, to_montgomery, v_vector)
from grpfield.cli import main

WORKLOAD_SPECS = ((5, 59, 3), (11, 42, 513))


def test_modmul_and_invert_digest():
    # The modmul and invert component tuples on the two workload fields.
    h = hashlib.sha256()
    for spec in WORKLOAD_SPECS:
        f = GrpParams(*spec)
        xs = [to_montgomery(psi(f, pow(3, i, f.p))) for i in range(1, 33)]
        for i, x in enumerate(xs):
            h.update(repr((modmul(x, xs[i - 1]).comps,
                           invert(x).comps)).encode())
    assert h.hexdigest() == \
        "49d233f0039b833574016fd5806f087dd1db5c248f9a17c98d6c8e884e5e1c5c"


def test_interleaved_red1_v_vector_digest():
    # v_vector and red1 at slice_bits w and l, and the modmul_interleaved
    # component tuples, on the two workload fields at q = 1..4.
    h = hashlib.sha256()
    for spec in WORKLOAD_SPECS:
        for q in range(1, 5):
            f = GrpParams(*spec, 64, q)
            h.update(repr((v_vector(f), v_vector(f, f.l))).encode())
            xs = [to_montgomery(psi(f, pow(3, i, f.p))) for i in range(1, 17)]
            for i, x in enumerate(xs):
                z = cvma_mul(x, xs[i - 1])
                h.update(repr((modmul_interleaved(x, xs[i - 1]).comps,
                               red1(z).comps, red1(z, f.l).comps)).encode())
    assert h.hexdigest() == \
        "9d73cbfb2b0e40f09c04aca2ab2d80f12cbaf7f566a5b5ae1e2cf42bb878d189"


def test_cofactor_search_digest(capsys):
    # The 26 fields found, one line each, as listed with Python 3.11.
    assert main(["params", "search", "--m", "5", "--l", "40",
                 "--c-min", "1048577", "--c-max", "1050576",
                 "--limit", "100"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 26
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0f0155933bc69e81db7774bd71d79f5cade1bcce4edb7d82a495b7750cd0c80d"
