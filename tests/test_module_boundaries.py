"""Module boundaries: no module uses another's private (``_``-prefixed) names, only the
oracle seeds, the CLI holds no generator and draws nothing of its own, the sampled
commands hold no study, and only ``chain.real_array`` converts a real number or array."""

import ast
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spinalign"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_no_private_name_is_imported(path):
    imported = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(_tree(path)) if isinstance(node, ast.ImportFrom)
        for alias in node.names if _private(alias.name)
    ]
    assert imported == []


@pytest.mark.parametrize("path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "oracle.py"}),
                         ids=lambda path: path.stem)
def test_only_the_oracle_names_numpy_random(path):
    # oracle.target_draws replays numpy's seeding; no other module seeds or re-states a
    # generator, so none names numpy.random or its generator types.
    banned = {"Generator", "PCG64", "bit_generator"}
    named = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            named += [alias.name for alias in node.names if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            named += [f"{module}.{alias.name}" for alias in node.names
                      if module.startswith("numpy.random") or alias.name in banned
                      or (module == "numpy" and alias.name == "random")]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.random",
                                                                       "numpy.random"):
            named.append(f"line {node.lineno}: {ast.unparse(node)}")
        named += [f"line {node.lineno}: {name}" for name in (getattr(node, "id", None),
                                                             getattr(node, "attr", None))
                  if name in banned]
    assert named == []


def test_cli_reads_no_private_attribute():
    # Assignments (such as the parser's own number pattern) are not reads.
    read = [
        f"line {node.lineno}: .{node.attr}"
        for node in ast.walk(_tree(PACKAGE / "cli.py"))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and _private(node.attr)
    ]
    assert read == []


def test_cli_reads_no_numpy_random():
    # The CLI's draws all come from oracle.target_draws.
    read = [
        f"line {node.lineno}: {node.value.id}.random"
        for node in ast.walk(_tree(PACKAGE / "cli.py"))
        if isinstance(node, ast.Attribute) and node.attr == "random"
        and isinstance(node.value, ast.Name)
    ]
    assert read == []


def test_cli_holds_no_generator():
    # The CLI takes blocks of draws; it names no stream maker or generator and draws nothing.
    tree = _tree(PACKAGE / "cli.py")
    banned = {"target_streams", "Generator"}
    named = [name for node in ast.walk(tree)
             for name in (getattr(node, "id", None), getattr(node, "attr", None),
                          getattr(node, "name", None), getattr(node, "asname", None))
             if name in banned]
    draws = [f"line {node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "random"]
    assert named == [] and draws == []


@pytest.mark.parametrize("name", ["shot_estimates", "noisy_replies"])
def test_reply_models_take_draws_not_a_generator(name):
    # The caller draws from its own stream; a reply model only turns draws into replies.
    from spinalign import oracle

    parameters = inspect.signature(getattr(oracle, name)).parameters.values()
    assert "draws" in [p.name for p in parameters]
    assert [p.name for p in parameters
            if p.name == "rng" or "Generator" in str(p.annotation)] == []


@pytest.mark.parametrize("command", ["cmd_noise", "cmd_measure"])
def test_sampled_commands_only_write_print_and_gate(command):
    # The study is noise_rows' or measure_columns'; the command loops over no block and
    # names none of the study's steps.
    body = next(node for node in _tree(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == command)
    steps = {"target_draws", "nearest_runs", "noisy_replies", "shot_estimates", "target_angles"}
    loops = [f"line {node.lineno}" for node in ast.walk(body)
             if isinstance(node, (ast.For, ast.While))]
    named = [f"line {node.lineno}: {name}" for node in ast.walk(body)
             for name in (getattr(node, "id", None), getattr(node, "attr", None)) if name in steps]
    assert loops == [] and named == []


def _parameter_floats(tree: ast.Module, floats: set[str]) -> dict[int, str]:
    """Each ``float(p)`` (or float64) of a function's own parameter ``p``, by node id."""
    found = {}
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        arguments = function.args
        parameters = {arg.arg for arg in (*arguments.posonlyargs, *arguments.args,
                                          *arguments.kwonlyargs, arguments.vararg,
                                          arguments.kwarg) if arg is not None}
        for node in ast.walk(function):
            if (isinstance(node, ast.Call) and ast.unparse(node.func) in floats
                    and any(isinstance(arg, ast.Name) and arg.id in parameters
                            for arg in node.args)):
                found[id(node)] = f"line {node.lineno}: {ast.unparse(node)}"
    return found


def test_only_real_array_converts_to_float():
    # chain.real_array is the one real-number check, scalars included; elsewhere a float
    # conversion would parse strings, read bools as numbers and drop imaginary parts, and
    # numbers.Real would be a second rule. So no module imports numbers, and no function
    # but real_array calls float() on its own parameter. hilbert's dtype=complex is its own
    # rule.
    floats = {"float", "np.float64", "numpy.float64"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        allowed = {id(node) for top in tree.body
                   if path.stem == "chain" and getattr(top, "name", None) == "real_array"
                   for node in ast.walk(top)}
        parameter_floats = _parameter_floats(tree, floats)
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if getattr(node, "attr", getattr(node, "id", None)) == "iscomplexobj":
                found.append(f"{path.stem} line {node.lineno}: iscomplexobj")
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "numbers" in (
                    [alias.name for alias in node.names] if isinstance(node, ast.Import)
                    else [node.module]):
                found.append(f"{path.stem} line {node.lineno}: imports numbers")
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "numbers":
                found.append(f"{path.stem} line {node.lineno}: {ast.unparse(node)}")
            if id(node) in parameter_floats:
                found.append(f"{path.stem} {parameter_floats[id(node)]}")
            if not isinstance(node, ast.Call):
                continue
            # Conversions only: allocating a new float array (np.zeros, np.empty) is not one.
            func = ast.unparse(node.func)
            if func in ("np.asarray", "np.array", "numpy.asarray", "numpy.array"):
                dtypes = node.args[1:2]
            elif func.endswith(".astype"):
                dtypes = node.args[:1]
            else:
                continue
            dtypes += [keyword.value for keyword in node.keywords if keyword.arg == "dtype"]
            if any(ast.unparse(dtype) in floats for dtype in dtypes):
                found.append(f"{path.stem} line {node.lineno}: {ast.unparse(node)}")
    assert found == []
