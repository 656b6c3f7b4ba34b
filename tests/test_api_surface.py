"""Every public definition in ``src/seknow``, and every parameter default it offers,
has a caller outside the tests; and no dataclass there merely wraps one field.

The supported interface is the CLI plus what ``src/seknow`` and
``benchmarks/`` themselves use. A public definition is *used* where code in
``src/seknow`` or ``benchmarks/`` refers to it, outside its own definition and
outside every definition already found unused: a helper only a dead API calls
is dead too. A reference is a name that is read or imported, an attribute, or
a string equal to the name that is no key or index (the benchmark tracer
patches names by string). A
module-level function or class is referred to by its bare name, in its own
module or in a file that imports it from that module (``from .metrics import
bleu``, ``from seknow.metrics import bleu``); by a string anywhere; or as an
attribute of its own module (``metrics.bleu``, ``metrics_mod.bleu``), never as
an attribute of anything else: ``report.bleu`` reads a field that only shares
its name, and a bare ``bleu`` elsewhere names some other module's ``bleu``. A
method or property is referred to by any attribute of its name.
The package ``__init__`` is not searched, because a re-export is not a caller.

A defaulted parameter of a public function, public method or ``__init__`` is
*set* where a call in ``src/seknow`` or ``benchmarks/``, outside the
parameter's own definition, passes it by keyword, by position or through a
``*``/``**`` argument. Calls resolve by name as references do; calling a class
calls its ``__init__``. A default no caller overrides is a constant in disguise.

A dataclass with one field is that field under a second name: each reader
unwraps it, and the field's own type says as much. A method or a
``__post_init__`` check adds nothing its callers cannot do with the field
itself. Such a record stays only if it caches a lookup derived from its field
(a ``cached_property`` that reads it), which the bare field would rebuild on
every use.

A dataclass field in ``src/seknow`` is read where code in ``src/seknow`` or
``benchmarks/`` loads an attribute of its name, or where its whole record is
printed through ``asdict``. The search matches by name alone, since it cannot
tell the object an attribute belongs to: a field counts as read when any
attribute read anywhere uses its name.

A name that an import in ``src/seknow`` binds is read somewhere in that module,
unless the benchmark tracer patches it there.

No module in ``src/seknow`` probes the filesystem (``os.path.exists``, ``isfile``,
``isdir`` or their ``pathlib`` forms): every input is opened through
``text.open_input`` or refused, and none becomes optional because a file is missing.

Every pattern handed to a ``re`` function in ``src/seknow`` is a string constant, so
each is compiled once and found in ``re``'s cache: a pattern built per value (an
``rf"..."`` of ``re.escape``) compiles again whenever the cache overflows.

No f-string in ``src/seknow`` writes a quote against an interpolation: a value is
quoted with ``!r``, whose escapes keep a line break, a quote or a backslash in
the value from splitting or garbling the one ``error:`` line.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "seknow"


def _definitions(path: Path) -> list[tuple[str, str, int, int]]:
    """(name, qualified name, first line, last line) of each public definition in ``path``."""
    found = []
    for node in ast.parse(path.read_text("utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        found.append((node, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(m, f"{node.name}.{m.name}") for m in node.body
                      if isinstance(m, ast.FunctionDef)]
    return [(n.name, f"{path.stem}.{qual}", n.lineno, n.end_lineno)
            for n, qual in found if not n.name.startswith("_")]


def _scope(path: Path, tree: ast.Module) -> tuple[dict[str, str], dict[str, str]]:
    """Package module of each name in ``tree`` that may stand for one, and
    ``module.name`` of each bare name bound in it to a package module's ``name``
    (aliases resolved); any other bare name is ``path``'s own."""
    modules = {p.stem: p.stem for p in PACKAGE.glob("*.py")}
    own = path.stem if path.parent == PACKAGE else f"{path.parent.name}/{path.stem}"
    bare: dict[str, str] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module in (None, "seknow"):
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif node.level == 1 or node.module.startswith("seknow."):
            source = node.module.removeprefix("seknow.")
            bare.update((a.asname or a.name, f"{source}.{a.name}") for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.setdefault(node.id, f"{own}.{node.id}")
    return modules, bare


def _references(path: Path) -> list[tuple[int, str]]:
    """(line, reference) of each possible reference in ``path``: ``module.name`` for a
    name read or imported (resolved by :func:`_scope`) or an attribute of a package
    module (aliases resolved), ``name`` for a string equal to it, ``.name`` for an
    attribute of anything else."""
    tree = ast.parse(path.read_text("utf-8"))
    modules, bare = _scope(path, tree)
    keys = set()
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            refs += [(node.lineno, bare[a.asname or a.name]) for a in node.names
                     if (a.asname or a.name) in bare]
        elif isinstance(node, ast.Subscript):
            keys.add(id(node.slice))
        elif isinstance(node, ast.Dict):
            keys.update(map(id, node.keys))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append((node.lineno, bare[node.id]))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier() and id(node) not in keys:
            refs.append((node.lineno, node.value))
        elif isinstance(node, ast.Attribute):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            refs.append((node.lineno, f"{modules.get(owner, '')}.{node.attr}"))
    return refs


def unused_names(search_benchmarks: bool = True) -> list[str]:
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    searched = sources + (sorted((ROOT / "benchmarks").glob("*.py")) if search_benchmarks
                          else [])
    # (file, line, reference) under the name each reference ends in
    refs: dict[str, list[tuple[Path, int, str]]] = {}
    for p in searched:
        for i, ref in _references(p):
            refs.setdefault(ref.rpartition(".")[2], []).append((p, i, ref))
    defs = [(name, qual, path, lo, hi)
            for path in sources for name, qual, lo, hi in _definitions(path)]
    dead: set[int] = set()
    changed = True
    while changed:
        changed = False
        for k, (name, qual, path, lo, hi) in enumerate(defs):
            if k in dead:
                continue
            excluded = [defs[j][2:] for j in dead] + [(path, lo, hi)]
            method = qual.count(".") == 2
            # refs[name] holds the forms name, module.name and .name; a method counts each
            if not any((ref == name or ref == f"{path.stem}.{name}" or method)
                       and not any(p == q and a <= i <= b for q, a, b in excluded)
                       for p, i, ref in refs.get(name, ())):
                dead.add(k)
                changed = True
    return sorted(defs[k][1] for k in dead)


def test_every_public_definition_has_a_caller():
    assert unused_names() == []


# Public definitions whose only caller outside the tests is under benchmarks/.
BENCHMARK_ONLY = (
    "corpus.CorpusSpec",
    "corpus.generate_synthetic_corpus",
    "corpus.save_corpus",
    "knowops.fuzzy_similarity",
    "metrics.bleu",
    "metrics.meteor_simplified",
    "metrics.rouge_l",
    "topics.TopicIndex.docs_for_entity",  # the generator's, which is benchmark-only itself
)


def test_benchmark_only_names_are_listed():
    only = set(unused_names(search_benchmarks=False)) - set(unused_names())
    assert sorted(only) == sorted(BENCHMARK_ONLY)


# Defaulted parameters the supported interface leaves to its callers on purpose.
UNSET_ALLOWED = (
    "cli.main(argv)",  # the console entry point reads sys.argv; tests pass argv
)


def _defaulted(path: Path) -> list[tuple[str, str, int, int, list[tuple[str, int | None]]]]:
    """(name, qualified name, first line, last line, parameters) of each public function,
    public method and ``__init__`` in ``path`` that has defaulted parameters; a parameter
    is (name, position in a call, None for keyword-only)."""
    found = []
    for node in ast.parse(path.read_text("utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            found.append((node, node.name, node.name, False))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            # a class call reaches its __init__, so that resolves as the class does
            found += [(m, node.name, node.name, True) if m.name == "__init__"
                      else (m, m.name, f"{node.name}.{m.name}", True)
                      for m in node.body if isinstance(m, ast.FunctionDef)]
    defs = []
    for fn, name, qual, method in found:
        if name.startswith("_") or any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                       for d in fn.decorator_list):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        params = [(a.arg, k - method) for k, a in enumerate(positional)
                  if k >= len(positional) - len(fn.args.defaults)]
        params += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                   if d is not None]
        if params:
            defs.append((name, f"{path.stem}.{qual}", fn.lineno, fn.end_lineno, params))
    return defs


def _calls(path: Path) -> list[tuple[int, str, ast.Call]]:
    """(line, callee reference as :func:`_references` forms it, call) of each call in ``path``."""
    tree = ast.parse(path.read_text("utf-8"))
    modules, bare = _scope(path, tree)
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            calls.append((node.lineno, bare[node.func.id], node))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = node.func.value.id if isinstance(node.func.value, ast.Name) else None
            calls.append((node.lineno, f"{modules.get(owner, '')}.{node.func.attr}", node))
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, by position, or in a ``*``/``**``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (len(call.args) > position
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def unset_parameters(search_benchmarks: bool = True) -> list[str]:
    """Defaulted parameters that no call in ``src/seknow`` or ``benchmarks/`` passes,
    outside the parameter's own definition. Calls resolve by name as
    :func:`unused_names` resolves references."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    searched = sources + (sorted((ROOT / "benchmarks").glob("*.py")) if search_benchmarks
                          else [])
    calls = {p: _calls(p) for p in searched}
    unset = []
    for path in sources:
        for name, qual, lo, hi, params in _defaulted(path):
            method = qual.count(".") == 2
            sites = [call for p, rows in calls.items() for i, ref, call in rows
                     if not (p == path and lo <= i <= hi)
                     and (ref == f"{path.stem}.{name}"
                          or (method and ref.endswith(f".{name}")))]
            unset += [f"{qual}({param})" for param, position in params
                      if not any(_passes(call, param, position) for call in sites)]
    return sorted(unset)


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert unset_parameters() == sorted(UNSET_ALLOWED)


# Defaulted parameters whose only setter outside the tests is under benchmarks/.
BENCHMARK_ONLY_PARAMETERS = (
    "metrics.evaluate_corpus(workers)",
    "topics.build_topic_index(stopwords)",
)


def test_benchmark_only_parameters_are_listed():
    only = set(unset_parameters(search_benchmarks=False)) - set(unset_parameters())
    assert sorted(only) == sorted(BENCHMARK_ONLY_PARAMETERS)


# One-field records that benchmarks/ uses, so they stay.
ONE_FIELD_ALLOWED = (
    "corpus.DialogCorpus",  # benchmarks/workload.py builds one and reads its dialogs
    "kb.ValidationReport",  # benchmarks/workload.py reads its violations
    "topics.TopicWord",  # benchmarks/run.py reads tw.token
)


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def one_field_records(source: str) -> list[str]:
    """Name of each ``@dataclass`` in ``source`` with exactly one annotated field that
    no ``cached_property`` of it reads as ``self.<field>``."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))):
            continue
        fields = [s.target.id for s in node.body if isinstance(s, ast.AnnAssign)]
        caches = [s for s in node.body if isinstance(s, ast.FunctionDef)
                  and any(map(_is_cached_property, s.decorator_list))]
        if len(fields) == 1 and not any(
                isinstance(n, ast.Attribute) and n.attr == fields[0]
                and isinstance(n.value, ast.Name) and n.value.id == "self"
                for cache in caches for n in ast.walk(cache)):
            found.append(node.name)
    return sorted(found)


def test_no_dataclass_only_wraps_one_field():
    assert [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in one_field_records(path.read_text("utf-8"))] == sorted(ONE_FIELD_ALLOWED)
    assert one_field_records(
        "@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n    def get(self):\n"
        "        return self.x\n"
        "@dataclass\nclass C:\n    x: int\n    @cached_property\n    def m(self):\n"
        "        return {v: k for k, v in self.x.items()}\n"
        "@dataclass\nclass D:\n    x: int\n    @cached_property\n    def m(self):\n"
        "        return 1\n"
        "@dataclass\nclass E:\n    x: int\n    y: int\n"
        "class F:\n    x: int\n") == ["A", "B", "D"]


# Imports their module never reads: benchmarks/tracer.py patches each on ``corpus`` by
# name, to time the layer named in its comment, so each must stay a module global there.
TRACER_SEAMS = (
    "corpus.lexicalize",  # timed as pipeline.lexicalize
    "corpus.parse_belief_span",  # timed as belief.parse
    "corpus.template_generate",  # timed as pipeline.generate
)


def unread_imports() -> list[str]:
    """``module.name`` of each name an import in ``src/seknow`` binds (``__future__``
    aside) that its module never reads."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            found += [f"{path.stem}.{name}" for name in bound if name not in read]
    return sorted(found)


def test_every_import_is_read():
    assert unread_imports() == sorted(TRACER_SEAMS)


# Records that cli prints whole with ``asdict``, so every field of each is read.
SERIALIZED = (
    "corpus.CorpusStats",
    "pipeline.CorruptionSample",
)


def unread_fields(serialized: tuple[str, ...] = SERIALIZED) -> list[str]:
    """``module.Class.field`` of each ``@dataclass`` field in ``src/seknow`` whose name no
    attribute load in ``src/seknow`` or ``benchmarks/`` reads, outside the classes in
    ``serialized``."""
    searched = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))
    read = {node.attr for path in searched for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if not (isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list))
                    and f"{path.stem}.{node.name}" not in serialized):
                continue
            found += [f"{path.stem}.{node.name}.{s.target.id}" for s in node.body
                      if isinstance(s, ast.AnnAssign) and s.target.id not in read]
    return sorted(found)


def test_every_field_is_read():
    assert unread_fields() == []
    only_serialized = {name.rpartition(".")[0] for name in unread_fields(serialized=())}
    assert sorted(only_serialized) == sorted(SERIALIZED)  # no stale entry


def raise_unless_wrappers() -> list[str]:
    """``module.function`` of each function in ``src/seknow`` whose body, after its
    docstring, is one ``if`` on its arguments, with no ``else``, that only raises. Such a
    wrapper formats its caller's message before the check runs; the caller raises where it
    checks. A record's ``__post_init__`` checks only ``self``, so it is no such wrapper."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body[ast.get_docstring(node) is not None:]
            if not (len(body) == 1 and isinstance(body[0], ast.If) and not body[0].orelse
                    and all(isinstance(s, ast.Raise) for s in body[0].body)):
                continue
            params = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} - {"self"}
            if any(isinstance(n, ast.Name) and n.id in params for n in ast.walk(body[0].test)):
                found.append(f"{path.stem}.{node.name}")
    return sorted(found)


def test_no_function_only_raises_unless_a_check_holds():
    assert raise_unless_wrappers() == []


def _bit_parallel_update(node: ast.AST) -> bool:
    """Whether ``node`` is ``(v + u) | (v - u)`` for some ``v`` and ``u``, either side first."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr)):
        return False
    sides = {type(side.op): (ast.dump(side.left), ast.dump(side.right))
             for side in (node.left, node.right) if isinstance(side, ast.BinOp)}
    return ast.Add in sides and sides[ast.Add] == sides.get(ast.Sub)


def lcs_kernels() -> list[str]:
    """``module.function`` of each function in ``src/seknow`` whose body holds the
    bit-parallel LCS update ``(v + u) | (v - u)`` (Hyyrö 2004)."""
    return sorted(f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.walk(ast.parse(path.read_text("utf-8")))
                  if isinstance(node, ast.FunctionDef) and any(map(_bit_parallel_update,
                                                                   ast.walk(node))))


def test_one_lcs_kernel():
    assert lcs_kernels() == ["text.packed_lcs"]
    assert _bit_parallel_update(ast.parse("(x - y) | (x + y)", mode="eval").body)
    assert not _bit_parallel_update(ast.parse("(x + y) | (y - x)", mode="eval").body)


def _is_cached_property(node: ast.expr) -> bool:
    return (node.id if isinstance(node, ast.Name) else
            node.attr if isinstance(node, ast.Attribute) else None) == "cached_property"


def _empty_container(node: ast.expr | None) -> bool:
    """Whether ``node`` is an empty ``{}``, ``[]``, ``()`` or a no-argument call of a
    built-in container type."""
    if isinstance(node, (ast.Dict, ast.List, ast.Tuple, ast.Set)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and not node.args
            and not node.keywords
            and node.func.id in {"dict", "list", "tuple", "set", "frozenset"})


def empty_memos(source: str) -> list[str]:
    """Name of each ``cached_property`` in ``source`` whose body, after its docstring, only
    returns an empty container: a memo that other code fills, so what it caches is built
    outside it."""
    return sorted(node.name for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FunctionDef)
                  and any(map(_is_cached_property, node.decorator_list))
                  and [type(s) for s in node.body[ast.get_docstring(node) is not None:]]
                  == [ast.Return] and _empty_container(node.body[-1].value))


def test_no_cached_property_is_an_empty_memo():
    assert [f"{path.stem}.{name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in empty_memos(path.read_text("utf-8"))] == []
    assert empty_memos("class A:\n    @functools.cached_property\n    def m(self):\n"
                       "        '''doc'''\n        return {}\n"
                       "    @cached_property\n    def n(self):\n        return dict()\n"
                       "    @cached_property\n    def o(self):\n        return {1: 2}\n"
                       "    @property\n    def p(self):\n        return []\n") == ["m", "n"]


_PROBES = frozenset({"exists", "lexists", "isfile", "isdir", "is_file", "is_dir"})


def filesystem_probes(source: str) -> list[tuple[int, str]]:
    """(line, name) of each filesystem probe in ``source``: an attribute named like
    ``os.path.exists``, ``isfile`` or ``isdir`` or their ``pathlib`` forms, or such a
    name imported from ``os.path``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _PROBES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "os.path":
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _PROBES]
    return sorted(found)


def test_no_input_is_probed_for():
    assert [(path.stem, *probe) for path in sorted(PACKAGE.glob("*.py"))
            for probe in filesystem_probes(path.read_text("utf-8"))] == []
    assert filesystem_probes("import os\nif os.path.exists(p):\n    pass\n"
                             "from os.path import isfile, join\nPath(p).is_dir()\n"
                             "os.path.join(p, q)\n") == [
        (2, "exists"), (4, "isfile"), (5, "is_dir")]


_RE_FUNCTIONS = frozenset({"compile", "search", "match", "fullmatch", "finditer", "findall",
                           "sub", "split"})


def built_patterns(source: str) -> list[tuple[int, str]]:
    """(line, function) of each ``re.<function>`` call in ``source`` whose pattern, the
    first positional argument or ``pattern=``, is not a string constant."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                and node.func.attr in _RE_FUNCTIONS):
            continue
        patterns = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "pattern"]
        if not all(isinstance(p, ast.Constant) and isinstance(p.value, str) for p in patterns):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_every_re_pattern_is_a_string_constant():
    assert [(path.stem, *call) for path in sorted(PACKAGE.glob("*.py"))
            for call in built_patterns(path.read_text("utf-8"))] == []
    assert built_patterns('re.compile(r"\\b")\nre.finditer(rf"\\b{re.escape(v)}\\b", t)\n'
                          're.sub(pattern=p, repl="", string=t)\nre.split(",", t)\n'
                          'PATTERN.match(t)\nre.escape(v)\nre.match("a" + v, t)\n') == [
        (2, "finditer"), (3, "sub"), (7, "match")]


def hand_quoted_values(source: str) -> list[tuple[int, str]]:
    """(line, expression) of each f-string interpolation in ``source`` that a
    hand-written quote opens or closes, as in ``f"domain '{name}'"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.JoinedStr):
            continue
        parts = [None, *node.values, None]
        for before, value, after in zip(parts, parts[1:], parts[2:]):
            if isinstance(value, ast.FormattedValue) and (
                    isinstance(before, ast.Constant) and before.value.endswith(("'", '"'))
                    or isinstance(after, ast.Constant) and after.value.startswith(("'", '"'))):
                found.append((value.lineno, ast.unparse(value.value)))
    return sorted(found)


def test_every_quoted_value_is_a_repr():
    assert [(path.stem, *site) for path in sorted(PACKAGE.glob("*.py"))
            for site in hand_quoted_values(path.read_text("utf-8"))] == []
    assert hand_quoted_values('f"domain \'{name}\'"\nf"slot {slot!r} of {d}"\n'
                              'f"a \'{{\' b"\nf\'id "{i}"\'\n'
                              'f"x \'{a!r}\'"\nf"{b}\'s"\n') == [
        (1, "name"), (4, "i"), (5, "a"), (6, "b")]
