"""Checks on the package source itself."""

import ast
import inspect
import re
import types
from pathlib import Path

import pytest

import grpfield
from grpfield import GrpParams, oracle

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "grpfield").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so checks must raise GrpError subclasses.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at {path.name} lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_optimize_flag_reads(path):
    # Nor may code branch on -O: no __debug__, and no .flags attribute
    # (sys.flags.optimize) or flags imported from sys.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "__debug__"
             or isinstance(node, ast.Attribute) and node.attr == "flags"
             or isinstance(node, ast.ImportFrom) and node.module == "sys"
             and "flags" in {alias.name for alias in node.names}]
    assert lines == [], f"-O flag reads at {path.name} lines {lines}"


def test_ci_runs_only_pytest():
    # Every check CI makes is a tier-1 test, so each workflow step runs
    # the pip install line or pytest, never an inline program.  The file
    # is read as plain text (CI installs no YAML parser); a run: whose
    # value continues on a deeper-indented line is refused too, since
    # YAML folds that line into the command.
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text() \
        .splitlines()
    runs, bad = [], []
    for i, line in enumerate(lines):
        found = re.match(r"\s*(- )?run:(.*)", line)
        if not found:
            continue
        runs.append(command := found[2].strip())
        column = line.index("run:")
        below = next((text for text in lines[i + 1:] if text.strip()), "")
        if (len(below) - len(below.lstrip()) > column
                or not re.fullmatch(r"python -m pip install pytest hypothesis"
                                    r"|python (-O )?-m pytest[\w .:=/-]*",
                                    command)):
            bad.append((i + 1, command))
    assert runs, "the workflow runs nothing"
    assert bad == [], f"workflow runs that are not pytest: {bad}"


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


def _attribute_writes(tree, names):
    """(owner class, attribute) of every write in tree that may reach an
    attribute in names: an assignment or del of one, and setattr,
    delattr, __setattr__ or __delattr__ naming one or a computed name
    (None), each unless its target is the self of a class other than
    GrpParams; and any vars() or __dict__ ("vars")."""
    for owner, node in _nodes_in_classes(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                or isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "vars"):
            yield owner, "vars"
            continue
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, (ast.Store, ast.Del))):
            target, attr = node.value, node.attr
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) in (
                    "setattr", "delattr", "__setattr__", "__delattr__"):
            # setattr(x, name, v), object.__setattr__(x, name, v) or
            # x.__setattr__(name, v), and the same for delattr
            bound = (isinstance(node.func, ast.Attribute)
                     and getattr(node.func.value, "id", None) != "object")
            target = node.func.value if bound else node.args[0]
            name = node.args[0 if bound else 1]
            attr = name.value if isinstance(name, ast.Constant) else None
        else:
            continue
        if (attr is None or attr in names) and not (
                owner not in (None, "GrpParams")
                and getattr(target, "id", None) == "self"):
            yield owner, attr


def test_grp_params_written_only_in_params():
    # Every kernel is generated from a field's values, so a GrpParams is
    # frozen, and no module but params writes one of its attributes, by
    # assignment, del, setattr, object.__setattr__ or vars()/__dict__.
    # In params only the GrpParams constructor writes them, prime_checked
    # included, so only it marks a field proven; the one later write is
    # arith._kernel's cache, through params._keep_kernels.
    names = set(vars(GrpParams(3, 2, 3, require_prime=False)))
    writes, keepers = {}, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        writes[path.name] = set(_attribute_writes(tree, names))
        keepers += [(path.name, owner) for owner, call in _calls(tree)
                    if getattr(call.func, "id", None) == "_keep_kernels"]
    params_writes = writes.pop("params.py")
    assert {name for owner, name in params_writes
            if owner != "GrpParams"} == {"modmul_kernel"}, params_writes
    assert {owner for owner, name in params_writes
            if name == "prime_checked"} == {"GrpParams"}, params_writes
    assert {"k", "p", "slack_range"} <= {name for _, name in params_writes}
    assert all(found == set() for found in writes.values()), writes
    assert keepers == [("arith.py", "_kernel")], keepers


def test_miller_rabin_bases_drawn_from_candidate():
    # No caller chooses Miller-Rabin's bases: miller_rabin takes (n,
    # rounds) and seeds its own Random from n.  The only defs with an rng
    # parameter are the two inert ones kept for perfbench, GrpParams's
    # (its __post_init__) and is_probable_prime's, and their check.
    assert list(inspect.signature(oracle.miller_rabin).parameters) \
        == ["n", "rounds"]
    with_rng = {(path.name, node.name)
                for path in SOURCES
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and "rng" in {arg.arg for arg in ast.walk(node.args)
                              if isinstance(arg, ast.arg)}}
    assert with_rng == {("params.py", "__post_init__"),
                        ("oracle.py", "is_probable_prime"),
                        ("oracle.py", "_check_rng")}, with_rng


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
    # package, and it hands that count to _decide unchanged, with no t.
    # Every other _decide call is the one proof step of a characteristic,
    # _decide(p, _products(m_plus_1), 64, t): the GrpParams constructor's
    # and the scans', each passing the t it holds, so the proof from
    # p - 1 can run.  _decide is the one caller of miller_rabin and
    # passes its count on.
    bad, tested, decided = [], 0, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for owner, call in _calls(tree):
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            keywords = {k.arg for k in call.keywords}
            if name == "is_probable_prime":
                ok = (len(call.args) <= 1 and "rounds" not in keywords
                      and None not in keywords)
            elif name == "_decide":
                decided.append((path.name, owner))
                rounds = call.args[2]
                ok = (isinstance(rounds, ast.Constant) and rounds.value == 64
                      and len(call.args) == 4
                      and not (isinstance(call.args[3], ast.Constant)
                               and call.args[3].value is None)
                      or isinstance(rounds, ast.Name) and rounds.id == "rounds"
                      and owner == "is_probable_prime"
                      and len(call.args) == 3)
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
    assert sorted(decided) == [("oracle.py", "is_probable_prime"),
                               ("params.py", "__post_init__"),
                               ("tables.py", "pure_power_scan"),
                               ("tables.py", "search_grps")], decided


def test_hw2_search_scans_through_search_grps():
    # hw2_search keeps its candidate set and bit-length test; the field
    # checks, the proof and the building of a found field are
    # search_grps' alone.
    tree = ast.parse((ROOT / "src" / "grpfield" / "tables.py").read_text())
    called = {getattr(call.func, "id", getattr(call.func, "attr", None))
              for owner, call in _calls(tree) if owner == "hw2_search"}
    assert "search_grps" in called
    assert called.isdisjoint(
        {"_decide", "check_field", "l_min", "_proven_field"}), called


def test_all_holds_no_module():
    # from grpfield import * binds the public functions and classes, and
    # no submodule over a caller's own name such as params.
    assert grpfield.__all__
    assert not [name for name in grpfield.__all__
                if isinstance(getattr(grpfield, name), types.ModuleType)]
    namespace = {}
    exec("from grpfield import *", namespace)
    assert "params" not in namespace and "oracle" not in namespace


def test_readme_python_blocks_run():
    # Every python block of README.md runs as written, in a namespace of
    # its own, so an example that names a removed function fails here.
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md")
                        .read_text(), flags=re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
