"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "grpfield")
                 .glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so checks must raise GrpError subclasses.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at {path.name} lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_branch_on_counter(path):
    # Op counts are tallies of the generated kernels' syntax trees (and
    # closed forms for the loops cvma_mul and montgomery_modmul): a
    # counter never picks the code that runs, so no branch may test it.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.If, ast.IfExp, ast.While))
             and any(isinstance(name, ast.Name) and name.id == "counter"
                     for name in ast.walk(node.test))]
    assert lines == [], f"branches on counter at {path.name} lines {lines}"


def test_counter_parameters_only_for_perfbench():
    # Op counts live in kernel_cost; only the three functions perfbench
    # reads counts through declare a counter parameter.
    declared = {(path.name, node.name)
                for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and "counter" in {arg.arg for arg in ast.walk(node.args)
                                  if isinstance(arg, ast.arg)}}
    assert declared == {("arith.py", "invert"), ("arith.py", "cvma_mul"),
                        ("bench.py", "montgomery_modmul")}, declared


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unseeded_random(path):
    # An argument-free Random() seeds from the OS, so its results cannot
    # be reproduced; seed it from the caller's seed or from the input.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and not node.args and not node.keywords
             and (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "Random"
                  or isinstance(node.func, ast.Name)
                  and node.func.id == "Random")]
    assert lines == [], f"unseeded Random() at {path.name} lines {lines}"


def test_unproven_fields_and_unchecked_residues_confined():
    # require_prime=False skips the proof of p: only the scans, which
    # prove p themselves, may pass it.  _unchecked_residue skips the
    # Residue checks: only params and arith may use it, for outputs that
    # are in range by construction or have passed the field's slack check.
    unproven, unchecked = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword) and node.arg == "require_prime":
                if not (isinstance(node.value, ast.Constant)
                        and node.value.value is True):
                    unproven.add(path.name)
            # A Name or Attribute use, an import (alias) or the def itself.
            if "_unchecked_residue" in (getattr(node, "id", None),
                                        getattr(node, "attr", None),
                                        getattr(node, "name", None)):
                unchecked.add(path.name)
    assert unproven <= {"tables.py"}, unproven
    assert unchecked <= {"arith.py", "params.py"}, unchecked


def test_generated_code_compiled_under_kernel_filename():
    # The opcode trace follows generated code by its filename, so every
    # compile must be in arith.py and name KERNEL_FILENAME, and every
    # exec or eval must run such a compile's code, never a bare string.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("compile", "exec", "eval")):
                continue
            found.append((path.name, node.lineno))
            assert path.name == "arith.py", (path.name, node.lineno)
            if node.func.id == "compile":
                filename = (node.args[1] if len(node.args) > 1 else
                            next(k.value for k in node.keywords
                                 if k.arg == "filename"))
                assert (isinstance(filename, ast.Name)
                        and filename.id == "KERNEL_FILENAME"), node.lineno
            else:
                code = node.args[0]
                assert (isinstance(code, ast.Call)
                        and isinstance(code.func, ast.Name)
                        and code.func.id == "compile"), node.lineno
    assert found, "no generated code found: is the check still looking?"


def _calls(node, owner=None):
    """(name of the innermost enclosing def, Call) for every call."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield owner, child
        yield from _calls(child, child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)


def test_primality_runs_sixty_four_rounds():
    # Standing rule: every primality test the package runs has 64 rounds.
    # Only is_probable_prime takes a count, for callers outside the
    # package, and it hands that count to miller_rabin unchanged.
    bad, tested = [], 0
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, call in _calls(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {k.arg for k in call.keywords}
            if name in ("is_probable_prime", "is_prime_characteristic"):
                most = 1 if name == "is_probable_prime" else 2
                ok = (len(call.args) <= most and "rounds" not in keywords
                      and None not in keywords)
            elif name == "miller_rabin":
                tested += 1
                rounds = call.args[1]
                ok = (isinstance(rounds, ast.Constant) and rounds.value == 64
                      or isinstance(rounds, ast.Name) and rounds.id == "rounds"
                      and owner == "is_probable_prime")
            else:
                continue
            if not ok:
                bad.append((path.name, owner, call.lineno))
    assert bad == [], f"round counts passed at {bad}"
    assert tested == 2, "no miller_rabin call found: is the check looking?"
