"""The package's surface carries no dead weight, checked by AST.

Three audits, none of which count text in docstrings or comments:

- every top-level def and class in `src/emschro` has a caller there (an AST
  name or attribute outside its own body), or is in `emschro.__all__`;
- every dataclass field is read as an attribute in `src/emschro` or
  `perfbench/`, outside its own class body, unless a function in
  `emschro.__all__` is annotated to return the class (its fields are then
  public results);
- every defaulted function parameter is passed, by keyword or position, at
  some call in `src/`, `tests/`, `scripts/` or `perfbench/`, and omitted at
  another;
- no function takes both a `SpectralDecomposition` and an `AngularPotential`:
  a decomposition carries the potential it was computed from.

Definitions whose only callers are tests belong in the tests, or in
`emschro.__all__`; a field nothing reads, or a parameter nothing sets, is
one to delete; a default every call overrides is one to make required.
"""

import ast
import pathlib

import emschro

SRC = pathlib.Path(emschro.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]


def _trees(*dirs: pathlib.Path) -> dict[str, ast.Module]:
    return {str(path): ast.parse(path.read_text())
            for d in dirs for path in sorted(d.rglob("*.py"))}


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _unreferenced(trees: dict[str, ast.Module]) -> list[str]:
    refs = []   # (name, node) for every name or attribute read anywhere
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
    out = []
    for mod, tree in trees.items():
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = {id(n) for n in ast.walk(d)}
            if not any(name == d.name and id(n) not in own for name, n in refs):
                out.append(f"{mod}.{d.name}")
    return out


def test_every_definition_has_a_caller_or_is_exported():
    unused = [q for q in _unreferenced(_package_trees())
              if q.split(".")[1] not in emschro.__all__]
    assert unused == []


def test_the_audit_sees_a_definition_without_a_caller():
    trees = {"m": ast.parse(
        "def used():\n    return used\n\n"
        "def caller():\n    '''mentions unused'''\n    return used()\n")}
    assert _unreferenced(trees) == ["m.caller"]


# -- dataclass fields ------------------------------------------------------------

UNKNOWN = "?"


def _named(node) -> str | None:
    """The last name of a Name or dotted Attribute."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _is_dataclass(c: ast.ClassDef) -> bool:
    return any(_named(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in c.decorator_list)


class _Types:
    """Which package dataclasses an expression can evaluate to, from annotations.

    A type is a set of class names; a class name suffixed `[]` is a list or
    tuple of that class.  `UNKNOWN` in a set means some source could not be
    typed.  Inference reads parameter and return annotations, field
    annotations, constructor calls, `replace(x, ...)`, list and tuple
    displays, assignments and `for` targets (comprehensions included),
    flow-insensitively per function.
    """

    def __init__(self, src: dict[str, ast.Module]):
        self.classes, self.module = {}, {}
        for mod, tree in src.items():
            for c in ast.walk(tree):
                if isinstance(c, ast.ClassDef) and _is_dataclass(c):
                    self.classes[c.name], self.module[c.name] = c, mod
        self.fields = {
            name: {s.target.id: self.annotation(s.annotation) for s in c.body
                   if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
            for name, c in self.classes.items()}
        self.returns: dict[str, frozenset] = {}
        for tree in src.values():
            for f in ast.walk(tree):
                if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    t = self.annotation(f.returns)
                    self.returns[f.name] = self.returns.get(f.name, t) | t

    def annotation(self, ann) -> frozenset:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann = ast.parse(ann.value, mode="eval").body
        if isinstance(ann, ast.BinOp):            # X | None
            return self.annotation(ann.left) | self.annotation(ann.right)
        if isinstance(ann, ast.Subscript) and _named(ann.value) in ("list", "tuple"):
            items = ann.slice.elts if isinstance(ann.slice, ast.Tuple) else [ann.slice]
            return frozenset(f"{c}[]" for i in items for c in self.annotation(i))
        name = _named(ann) if ann is not None else None
        return frozenset([name]) if name in self.classes else frozenset()

    def of(self, node, env: dict) -> frozenset:
        if isinstance(node, ast.Name):
            return env.get(node.id, frozenset([UNKNOWN]))
        if isinstance(node, ast.Call):
            name = _named(node.func)
            if name == "replace" and node.args:
                return self.of(node.args[0], env)
            if name in self.classes:
                return frozenset([name])
            return self.returns.get(name) or frozenset([UNKNOWN])
        if isinstance(node, ast.Attribute):
            out = frozenset()
            for c in self.of(node.value, env):
                out |= self.fields.get(c, {}).get(node.attr, frozenset())
            return out or frozenset([UNKNOWN])
        if isinstance(node, ast.Subscript):
            return self.elements(self.of(node.value, env))
        if isinstance(node, (ast.Tuple, ast.List)):
            return frozenset(f"{c}[]" for e in node.elts for c in self.of(e, env))
        return frozenset([UNKNOWN])

    @staticmethod
    def elements(t: frozenset) -> frozenset:
        return frozenset(c[:-2] for c in t if c.endswith("[]")) or frozenset([UNKNOWN])

    def env(self, scope) -> dict:
        """Variable name -> type over one function (or module) body."""
        env: dict[str, frozenset] = {}
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = scope.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                env[arg.arg] = self.annotation(arg.annotation) or frozenset([UNKNOWN])
        for _ in range(3):    # chains like `table = f(); for r in table.rows` settle
            for node in ast.walk(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, t = node.targets[0], self.of(node.value, env)
                elif isinstance(node, (ast.For, ast.comprehension)):
                    target, t = node.target, self.elements(self.of(node.iter, env))
                else:
                    continue
                if isinstance(target, ast.Name):
                    env[target.id] = env.get(target.id, frozenset()) | t
        return env


def _unread_fields(src: dict[str, ast.Module], readers: dict[str, ast.Module],
                   exported=()) -> list[str]:
    """`module.Class.field` for every dataclass field no attribute load in `readers` reads."""
    types = _Types(src)
    owners: dict[str, list[str]] = {}
    for c, fields in types.fields.items():
        for f in fields:
            owners.setdefault(f, []).append(c)
    read = set()
    for tree in readers.values():
        scopes = [tree] + [f for f in ast.walk(tree)
                           if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        envs = {id(s): types.env(s) for s in scopes}
        # each attribute load is typed in its innermost enclosing scope
        stack = [(tree, envs[id(tree)], None)]
        while stack:
            node, env, cls = stack.pop()
            if id(node) in envs:
                env = envs[id(node)]
            if isinstance(node, ast.ClassDef):
                cls = node.name
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node.attr in owners):
                t = types.of(node.value, env)
                hits = [c for c in owners[node.attr] if c in t]
                if UNKNOWN in t and len(owners[node.attr]) == 1:
                    hits = owners[node.attr]
                read |= {(c, node.attr) for c in hits if c != cls}
            stack.extend((child, env, cls) for child in ast.iter_child_nodes(node))
    public = set().union(*(types.returns.get(name, frozenset()) for name in exported))
    return sorted(f"{types.module[c]}.{c}.{f}" for c, fields in types.fields.items()
                  for f in fields if c not in public and (c, f) not in read)


def test_every_dataclass_field_is_read():
    src = _package_trees()
    assert _unread_fields(src, {**src, **_trees(ROOT / "perfbench")},
                          emschro.__all__) == []


def test_the_audit_sees_a_field_nobody_reads():
    src = {"m": ast.parse(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass A:\n    n: int\n    unread: int\n"
        "    def twice(self):\n        return self.unread\n\n"
        "@dataclass\nclass B:\n    n: int\n    hidden: int\n\n"
        "@dataclass\nclass Pub:\n    unread: int\n\n"
        "def make() -> B:\n    return B(1, 2)\n\n"
        "def public() -> Pub:\n    return Pub(0)\n\n"
        "def use(a: A):\n    b = make()\n    return a.n + b.hidden + [x.n for x in [a]][0]\n")}
    # B.n is hidden behind A.n by name alone; typing the receivers finds it
    assert _unread_fields(src, src, ["public"]) == ["m.A.unread", "m.B.n"]


# -- defaulted parameters --------------------------------------------------------


def _defaulted_calls(src: dict[str, ast.Module], callers: dict[str, ast.Module]):
    """(`module.function(param)`, position or None, param, calls) per defaulted parameter.

    Calls are matched by the function's name (a class name for `__init__`).
    """
    calls: dict[str, list[ast.Call]] = {}
    for tree in callers.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _named(node.func):
                calls.setdefault(_named(node.func), []).append(node)
    for mod, tree in src.items():
        methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                   for f in c.body if isinstance(f, ast.FunctionDef)}
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = f.args
            positional = a.posonlyargs + a.args
            name, qual, skip = f.name, f"{mod}.{f.name}", 0
            if id(f) in methods:
                qual = f"{mod}.{methods[id(f)]}.{f.name}"
                if not any(_named(d) == "staticmethod" for d in f.decorator_list):
                    skip = 1          # self or cls
                if name == "__init__":
                    name = methods[id(f)]
            defaulted = [(i - skip, arg.arg) for i, arg in
                         enumerate(positional[len(positional) - len(a.defaults):],
                                   start=len(positional) - len(a.defaults))]
            defaulted += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for pos, param in defaulted:
                yield f"{qual}({param})", pos, param, calls.get(name, [])


def _starred(c: ast.Call) -> bool:
    return (any(isinstance(x, ast.Starred) for x in c.args)
            or any(k.arg is None for k in c.keywords))


def _passes(c: ast.Call, pos: int | None, param: str) -> bool:
    """Whether `c` names `param` by keyword or fills its position with a plain argument."""
    if any(k.arg == param for k in c.keywords):
        return True
    return (pos is not None and len(c.args) > pos
            and not any(isinstance(x, ast.Starred) for x in c.args[:pos + 1]))


def _unset_defaults(src: dict[str, ast.Module], callers: dict[str, ast.Module]) -> list[str]:
    """Every defaulted parameter no call in `callers` passes.

    A call with `*args` or `**kwargs` counts as passing everything.
    """
    return sorted(q for q, pos, param, calls in _defaulted_calls(src, callers)
                  if not any(_starred(c) or _passes(c, pos, param) for c in calls))


def _always_set_defaults(src: dict[str, ast.Module],
                         callers: dict[str, ast.Module]) -> list[str]:
    """Every defaulted parameter that each of its (one or more) calls passes explicitly.

    A call with `*args` or `**kwargs` may omit it, so it keeps the default.
    """
    return sorted(q for q, pos, param, calls in _defaulted_calls(src, callers)
                  if calls and all(_passes(c, pos, param) for c in calls))


def _callers() -> dict[str, ast.Module]:
    return _trees(*(ROOT / d for d in ("src", "tests", "scripts", "perfbench")))


def test_every_defaulted_parameter_is_passed_somewhere():
    assert _unset_defaults(_package_trees(), _callers()) == []


def test_no_default_is_passed_by_every_call():
    assert _always_set_defaults(_package_trees(), _callers()) == []


def test_the_audit_sees_a_default_nobody_sets():
    src = {"m": ast.parse(
        "def f(x, by_pos=1, by_kw=2, never=3, *, kw_only=4):\n    return x\n\n"
        "class C:\n    def __init__(self, a=0):\n        self.a = a\n"
        "    def g(self, b=0):\n        return b\n")}
    callers = {**src, "t": ast.parse(
        "f(0, 1)\nf(0, by_kw=5)\nC(1).g()\n")}
    assert _unset_defaults(src, callers) == ["m.C.g(b)", "m.f(kw_only)", "m.f(never)"]


def test_the_audit_sees_a_default_every_call_sets():
    src = {"m": ast.parse(
        "def f(x, by_pos=1, by_kw=2, *, kw_only=4):\n    return x\n\n"
        "def h(always=0, starred=0):\n    return always\n\n"
        "class C:\n    def __init__(self, a=0):\n        self.a = a\n"
        "    def g(self, b=0):\n        return b\n")}
    callers = {**src, "t": ast.parse(
        "f(0, 1, 2)\nf(0, by_pos=1, kw_only=5)\nC(1)\nC(a=2)\n"
        "h(1, 2)\nh(always=3, **{})\nh(1, *[2])\n")}
    # C.g has no call; f(by_kw), f(kw_only) and h(starred) each have a call
    # that omits them or may omit them
    assert _always_set_defaults(src, callers) == ["m.C.__init__(a)", "m.f(by_pos)",
                                                  "m.h(always)"]


# -- one carrier for the potential -------------------------------------------------


def _annotated_names(ann) -> set[str]:
    """Names in an annotation, string and `X | None` forms included."""
    if ann is None:
        return set()
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        ann = ast.parse(ann.value, mode="eval").body
    return {n.id for n in ast.walk(ann) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(ann) if isinstance(n, ast.Attribute)}


def _split_carriers(trees: dict[str, ast.Module]) -> list[str]:
    """`module.function` for every function annotating one parameter
    `SpectralDecomposition` and another `AngularPotential`."""
    out = []
    for mod, tree in trees.items():
        for f in ast.walk(tree):
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = f.args
            params = [_annotated_names(x.annotation)
                      for x in a.posonlyargs + a.args + a.kwonlyargs]
            if (any("SpectralDecomposition" in n for n in params)
                    and any("AngularPotential" in n for n in params)):
                out.append(f"{mod}.{f.name}")
    return sorted(out)


def test_no_function_takes_a_decomposition_and_its_potential_apart():
    assert _split_carriers(_package_trees()) == []


def test_the_audit_sees_a_potential_passed_beside_its_decomposition():
    trees = {"m": ast.parse(
        "def split(dec: SpectralDecomposition, p: 'AngularPotential | None'):\n"
        "    return dec\n\n"
        "def carried(dec: galerkin.SpectralDecomposition, j: int):\n    return dec\n\n"
        "def potential_only(p: AngularPotential, q: AngularPotential):\n    return p\n")}
    assert _split_carriers(trees) == ["m.split"]


# -- kernel bounds read coefficients, not samples ----------------------------------


def _sampled_reads(tree: ast.Module) -> list[str]:
    """Functions that evaluate a potential on a grid (`a_values`, `A_values`) or
    branch on a missing potential (`... potential is None`)."""
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for n in ast.walk(f):
            sampled = (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                       and n.func.attr in ("a_values", "A_values"))
            provenance = (isinstance(n, ast.Compare)
                          and isinstance(n.left, ast.Attribute) and n.left.attr == "potential"
                          and any(isinstance(c, ast.Constant) and c.value is None
                                  for c in n.comparators))
            if sampled or provenance:
                out.append(f.name)
                break
    return out


def test_no_kernel_function_samples_the_potential_or_branches_on_its_absence():
    assert _sampled_reads(_package_trees()["kernel"]) == []


def test_the_audit_sees_a_sampled_extreme_and_a_provenance_branch():
    tree = ast.parse(
        "def floor(p, th):\n    return min(p.a_values(th))\n\n"
        "def sup(data, th):\n    return max(abs(data.potential.A_values(th)))\n\n"
        "def branch(data):\n    return 1.0 if data.potential is None else 2.0\n\n"
        "def coeffs(p):\n    return p.norm_bounds\n")
    assert _sampled_reads(tree) == ["floor", "sup", "branch"]
