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
    # require_prime=False skips the proof of p: no module passes
    # require_prime other than True, so the library builds no unproven
    # field.  The scans, which prove p themselves, record it through
    # params._proven_field, and only tables takes that path.  Residue's slot
    # setters _set_comps and _set_params, with object.__new__, skip the
    # Residue checks: params defines the setters, and only arith builds
    # a Residue from object.__new__, for outputs that are in range by
    # construction or have passed the field's slack check.  No module
    # wraps them in a helper named _unchecked_residue: the inline form
    # is the only one.
    unproven, proven_path, unchecked, new = set(), set(), set(), set()
    for path in SOURCES:
        assert "_unchecked_residue" not in path.read_text(), path.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.keyword) and node.arg == "require_prime":
                if not (isinstance(node.value, ast.Constant)
                        and node.value.value is True):
                    unproven.add(path.name)
            # A Name or Attribute use, an import (alias) or the def itself.
            names = (getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None))
            if "_proven_field" in names:
                proven_path.add(path.name)
            if {"_set_comps", "_set_params"} & {*names}:
                unchecked.add(path.name)
            # object.__new__, whether called or bound to a name
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"):
                new.add(path.name)
    assert unproven == set(), unproven
    assert proven_path == {"params.py", "tables.py"}, proven_path
    assert unchecked <= {"arith.py", "params.py"}, unchecked
    assert new <= {"arith.py"}, new


def _nodes_in_classes(node, owner=None):
    """(name of the innermost enclosing class, node) for every node."""
    for child in ast.iter_child_nodes(node):
        yield owner, child
        yield from _nodes_in_classes(child, child.name if isinstance(
            child, ast.ClassDef) else owner)


def test_prime_checked_written_only_in_params():
    # A field is marked proven only by the GrpParams constructor;
    # nothing else writes the mark, by assignment or by setattr, the
    # scans' proven-field path included.
    writers = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, node in _nodes_in_classes(tree):
            targets = (node.targets if isinstance(node, ast.Assign) else
                       [node.target] if isinstance(
                           node, (ast.AugAssign, ast.AnnAssign)) else [])
            if any(isinstance(target, ast.Attribute)
                   and target.attr == "prime_checked" for target in targets):
                writers.add((path.name, owner))
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "setattr"
                    and any(isinstance(arg, ast.Constant)
                            and arg.value == "prime_checked"
                            for arg in node.args)):
                writers.add((path.name, owner))
    assert writers == {("params.py", "GrpParams")}, writers


def test_miller_rabin_bases_drawn_from_candidate():
    # No caller chooses Miller-Rabin's bases: the one miller_rabin call
    # passes _bases(n), a Random seeded from the candidate, and _bases
    # takes the candidate alone.
    calls, bases_args = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) \
                    == "miller_rabin":
                calls.append((path.name, ast.unparse(node)))
            if isinstance(node, ast.FunctionDef) and node.name == "_bases":
                bases_args.append(ast.unparse(node.args))
    assert calls == [("oracle.py", "miller_rabin(n, rounds, _bases(n))")], \
        calls
    assert bases_args == ["n: int"], bases_args


def test_generated_code_compiled_under_kernel_filename():
    # The opcode trace follows generated code by its filename, so every
    # compile must be in arith.py and name KERNEL_FILENAME, and every
    # exec or eval must run such a compile's code, never a bare string.
    # A field's six kernels are one module, so there is one of each.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("compile", "exec", "eval")):
                continue
            found.append(node.func.id)
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
    assert sorted(found) == ["compile", "exec"], found


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
    # package, and it hands that count to _decide unchanged.  Every other
    # _decide call passes the constant 64: is_prime_characteristic's and
    # the scans' in tables, which call it directly once their range is
    # checked.  _decide is the one caller of miller_rabin and passes its
    # count on.
    bad, tested, decided = [], 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, call in _calls(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {k.arg for k in call.keywords}
            if name in ("is_probable_prime", "is_prime_characteristic"):
                most = 1 if name == "is_probable_prime" else 2
                ok = (len(call.args) <= most and "rounds" not in keywords
                      and None not in keywords)
            elif name == "_decide":
                decided.append((path.name, owner))
                rounds = call.args[2]
                ok = (isinstance(rounds, ast.Constant) and rounds.value == 64
                      or isinstance(rounds, ast.Name) and rounds.id == "rounds"
                      and owner == "is_probable_prime")
            elif name == "miller_rabin":
                tested += 1
                rounds = call.args[1]
                ok = (isinstance(rounds, ast.Name) and rounds.id == "rounds"
                      and owner == "_decide")
            else:
                continue
            if not ok:
                bad.append((path.name, owner, call.lineno))
    assert bad == [], f"round counts passed at {bad}"
    assert tested == 1, "is the check looking?"
    assert sorted(decided) == [("oracle.py", "is_prime_characteristic"),
                               ("oracle.py", "is_probable_prime"),
                               ("tables.py", "hw2_search"),
                               ("tables.py", "search_grps")], decided
