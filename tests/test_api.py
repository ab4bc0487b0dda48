"""Every optional parameter of a phasekit function is set by some call.

An option that no call in the package, its tests, its demos or its benchmark
ever sets is a constant with extra code paths; it belongs in the function as
a constant.  The scan is syntactic: calls are matched to definitions by the
called name, so two functions sharing a name share their callers, which can
hide an unset option.  A `*` or `**` splat is not expanded, so an option set
only through one reads as unset; such calls name their arguments instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "demos", "perfbench")


def _definitions(package):
    """Called name -> [(label, [(param, position or None, defaulted)], offset)].

    Module-level functions and the methods of module-level classes only:
    nested functions are not API, and their defaults bind loop values.  A
    class's `__init__` is called by the class name; offset is 1 where a
    call through an attribute or the class skips `self`.
    """
    defs = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(None, tree)] + [(node.name, node) for node in tree.body
                                   if isinstance(node, ast.ClassDef)]
        for cls, scope in scopes:
            for fn in scope.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                args = fn.args
                positional = args.posonlyargs + args.args
                first_default = len(positional) - len(args.defaults)
                params = [(p.arg, i, i >= first_default)
                          for i, p in enumerate(positional)]
                params += [(p.arg, None, d is not None)
                           for p, d in zip(args.kwonlyargs, args.kw_defaults)]
                offset = int(bool(positional)
                             and positional[0].arg in ("self", "cls"))
                label = ".".join(filter(None, (path.stem, cls, fn.name)))
                called_as = cls if fn.name == "__init__" else fn.name
                defs.setdefault(called_as, []).append((label, params, offset))
    return defs


def unset_options(root):
    """'module.function: param' for each defaulted parameter no call sets."""
    defs = _definitions(root / "src" / "phasekit")
    set_by_some_call = set()
    for top in SCANNED:
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = getattr(func, "id", getattr(func, "attr", None))
                for label, params, offset in defs.get(name, ()):
                    n_pos = len(call.args) + offset
                    for param, position, _ in params:
                        if position is not None and position < n_pos:
                            set_by_some_call.add((label, param))
                    for keyword in call.keywords:
                        set_by_some_call.add((label, keyword.arg))
    return sorted(f"{label}: {param}"
                  for entries in defs.values()
                  for label, params, _ in entries
                  for param, _, defaulted in params
                  if defaulted and (label, param) not in set_by_some_call)


def test_every_option_has_a_caller():
    assert unset_options(ROOT) == []
