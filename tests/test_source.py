"""Source hygiene: every import in a qlyap module is used there, every
module-level private name is used somewhere in the package, only
`quantum` writes a number, integer, bound or list rule or reads an
operator tolerance, every tool makes one call of the seeded-trials
driver, and the batch noise path builds no generator per row."""

import ast
from pathlib import Path

import qlyap

PACKAGE_DIR = Path(qlyap.__file__).parent


def _trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
    }


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_module_keeps_an_unused_import():
    # __init__.py imports names only to re-export them
    leftovers = []
    for name, tree in _trees().items():
        if name == "__init__.py":
            continue
        leftovers += [f"{name}:{line}: {imp}" for line, imp in _unused_imports(tree)]
    assert not leftovers, "unused imports:\n" + "\n".join(leftovers)


def test_no_module_keeps_an_unused_private_name():
    trees = _trees()
    referenced = {ref for tree in trees.values() for ref in _references(tree)}
    leftovers = [
        f"{name}:{line}: {private}"
        for name, tree in trees.items()
        for line, private in _private_definitions(tree)
        if private not in referenced
    ]
    assert not leftovers, "private names nothing uses:\n" + "\n".join(leftovers)


def _type_checks(tree, names):
    """Lines of the isinstance calls in tree that test for one of the types in names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(getattr(kind, "id", None) in names for kind in kinds):
                yield node.lineno


def test_only_quantum_tells_a_bool_from_a_number():
    # an isinstance(..., bool) test is the mark of a number or integer rule;
    # require_number and require_int in quantum are the only ones
    found = [
        f"{name}:{line}"
        for name, tree in _trees().items()
        if name != "quantum.py"
        for line in _type_checks(tree, {"bool"})
    ]
    assert not found, "isinstance(..., bool) outside quantum.py:\n" + "\n".join(found)
    assert list(_type_checks(_trees()["quantum.py"], {"bool"})), "the rules in quantum.py were not seen"


def test_only_quantum_tells_a_list_from_a_non_list():
    # require_list is the one list rule; io.to_jsonable, which encodes
    # values rather than checking arguments, is the one exemption
    trees = _trees()
    encoder = next(f for f in trees["io.py"].body if getattr(f, "name", None) == "to_jsonable")
    exempt = range(encoder.lineno, encoder.end_lineno + 1)
    found = [
        f"{name}:{line}"
        for name, tree in trees.items()
        if name != "quantum.py"
        for line in _type_checks(tree, {"list", "tuple"})
        if not (name == "io.py" and line in exempt)
    ]
    assert not found, "isinstance(..., list or tuple) outside quantum.py:\n" + "\n".join(found)
    assert list(_type_checks(trees["quantum.py"], {"list", "tuple"})), "the list rule was not seen"


_BOUND_WORDS = ("must be >", "must be <", "must all be", "positive", "nonnegative", "must lie in")


def _raised_text(tree):
    """(line, text) of each string constant in the exception of a raise statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            for part in ast.walk(node.exc):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield node.lineno, part.value


def test_no_bound_message_outside_quantum():
    # a numeric bound is stated by require_number's above / at_least / below
    # (or require_int's minimum), so each bound has one message shape
    found = [
        f"{name}:{line}: {text!r}"
        for name, tree in _trees().items()
        if name != "quantum.py"
        for line, text in _raised_text(tree)
        if any(word in text for word in _BOUND_WORDS)
    ]
    assert not found, "bound messages outside quantum.py:\n" + "\n".join(found)
    assert any(
        word in text for _, text in _raised_text(_trees()["quantum.py"]) for word in _BOUND_WORDS
    ), "the bound messages in quantum.py were not seen"


_TOLERANCES = {"RANK_TOL", "HERMITIAN_TOL", "TRACE_TOL", "EXPECTATION_IMAG_TOL"}


def _tolerance_mentions(tree):
    """(line, name) of each use, definition or import of an operator tolerance in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _TOLERANCES:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in _TOLERANCES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names if alias.name in _TOLERANCES)


def test_no_operator_tolerance_outside_quantum():
    # every "is this zero" on an operator goes through quantum (negligible and
    # the validation rules), each a fraction of operator_size; a threshold
    # written elsewhere would bring back a check that depends on units
    found = [
        f"{name}:{line}: {tol}"
        for name, tree in _trees().items()
        if name != "quantum.py"
        for line, tol in _tolerance_mentions(tree)
    ]
    assert not found, "operator tolerances outside quantum.py:\n" + "\n".join(found)
    read = {tol for _, tol in _tolerance_mentions(_trees()["quantum.py"])}
    assert read == _TOLERANCES, "the tolerances in quantum.py were not seen"


_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _driver_calls(node):
    return [
        call for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_run_trials"
    ]


def test_every_tool_calls_the_driver_once_outside_any_loop():
    # a tool stacks all of its groups as rows of one start array and makes one
    # _run_trials call; a per-group loop around the driver must not come back
    callers, found = set(), []
    for name, tree in _trees().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = _driver_calls(func)
            if calls:
                callers.add(func.name)
            if len(calls) > 1:
                found.append(f"{name}:{func.lineno}: {func.name} calls _run_trials {len(calls)} times")
        for loop in ast.walk(tree):
            if isinstance(loop, _LOOPS):
                found += [f"{name}:{call.lineno}: _run_trials called in a loop" for call in _driver_calls(loop)]
    assert not found, "\n".join(found)
    assert callers == {"run_ensemble", "stability_bound_test", "invariance_probe"}, callers


def _calls_by_function(callee_name):
    """{(module, line): innermost function around it} for every call of a callee so named."""
    found = {}
    for module, tree in _trees().items():
        for node in ast.walk(tree):  # outer scopes come first, so inner ones overwrite them
            if isinstance(node, ast.Module):
                scope = "<module>"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            else:
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    name = getattr(call.func, "attr", getattr(call.func, "id", None))
                    if name == callee_name:
                        found[(module, call.lineno)] = scope
    return found


def test_only_the_reference_path_builds_a_generator_from_a_seed():
    # WienerPath.generate builds Generator(Philox(seed)), the reference the
    # batch path is tested against; the batch path re-keys idle generators
    # with keys hashed in one pass, and builds one only when the idle list
    # runs out (_rng) or for a seed >= 2**128, beyond the hash (Philox)
    rng_callers = _calls_by_function("_rng")
    philox_callers = _calls_by_function("Philox")
    assert set(rng_callers.values()) == {"generate", "_generators"}, rng_callers
    assert set(philox_callers.values()) == {"_rng", "_generators"}, philox_callers
    assert list(rng_callers.values()).count("_generators") == 1, rng_callers
    assert list(philox_callers.values()).count("_generators") == 1, philox_callers


_ALLOCATORS = {"empty", "zeros", "where", "array", "stack"}


def _numpy_allocations(node):
    """(line, name) of each np.empty, np.zeros, np.where, np.array or np.stack call under node."""
    for call in ast.walk(node):
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and getattr(call.func.value, "id", None) == "np"
            and call.func.attr in _ALLOCATORS
        ):
            yield call.lineno, call.func.attr


def test_the_step_loop_writes_into_per_width_buffers():
    # every array a step writes is built once per batch width by _Buffers;
    # an allocation in the loop would come back on every step
    tree = _trees()["dynamics.py"]
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    methods = {f.name: f for f in classes["_Stepper"].body if isinstance(f, ast.FunctionDef)}
    found = [
        f"dynamics.py:{line}: np.{name} in _Stepper.{method}"
        for method in ("diagnostics", "step", "states")
        for line, name in _numpy_allocations(methods[method])
    ]
    assert not found, "\n".join(found)
    assert list(_numpy_allocations(classes["_Buffers"])), "no allocation seen in _Buffers"
