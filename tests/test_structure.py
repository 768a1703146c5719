"""The model forward runs in `pipeline.frame_forward` and
`pipeline.slice_forward`: `TrackSession` schedules, checks and holds
input, and no method of it touches an encoder or fusion or builds a
pyramid. Only its stacking helper builds an event stack."""

import ast
import pathlib

PIPELINE = pathlib.Path(__file__).resolve().parent.parent / "src" / "evtrack" / "pipeline.py"
LAYERS = {"frame_encoder", "event_encoder", "fusion"}
STACKING_HELPER = "_event_stack"


def _functions():
    """The module-level functions of pipeline.py and the methods of TrackSession, by name."""
    tree = ast.parse(PIPELINE.read_text(), filename=str(PIPELINE))
    session = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "TrackSession")
    defs = lambda body: {node.name: node for node in body if isinstance(node, ast.FunctionDef)}
    return defs(tree.body), defs(session.body)


def _reads(function):
    """The attribute names and the global names that `function` reads."""
    nodes = list(ast.walk(function))
    return ({n.attr for n in nodes if isinstance(n, ast.Attribute)},
            {n.id for n in nodes if isinstance(n, ast.Name)})


def test_the_session_runs_no_layer_of_the_model():
    _, methods = _functions()
    assert STACKING_HELPER in methods
    found = []
    for name, method in methods.items():
        attrs, names = _reads(method)
        found += [f"{name} reads .{attr}" for attr in sorted(attrs & LAYERS)]
        if "build_pyramid" in names:
            found.append(f"{name} calls build_pyramid")
        if "build_event_stack" in names and name != STACKING_HELPER:
            found.append(f"{name} calls build_event_stack")
    assert not found, found


def test_the_forward_functions_run_every_layer():
    """The guard above is not vacuous: the layers run somewhere."""
    functions, methods = _functions()
    attrs, names = set(), set()
    for name in ("frame_forward", "slice_forward"):
        a, n = _reads(functions[name])
        attrs |= a
        names |= n
    assert LAYERS <= attrs and "build_pyramid" in names
    assert "build_event_stack" in _reads(methods[STACKING_HELPER])[1]
