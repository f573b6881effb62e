"""Source hygiene: every name a ``ccflab`` module imports, with ``import ...``
or ``from ... import``, is used in that module or re-exported through its
``__all__``; every ``__all__`` entry of a module other than the package's
``__init__`` is defined in that module, so each public name has one home;
every ``ccflab`` name the benchmark wraps by name still exists, and every
argument its observers read is a parameter of the function they wrap; every
public name is reached from the CLI or wrapped by the benchmark, so no helper
only the tests call lives in ``src``; the only random generator is built by
``noise.stream``, and the only path Wiener stream ``stream(seed, 0)`` is
drawn by ``noise.wiener_increments``; real fields are transformed only by
``spectral``'s ``rfft``/``irfft`` and stepped only by ``integrate.em_step``;
every SPDE path is run by ``ensemble.run_paths``; every horizon's step count
comes from ``integrate.whole_steps``; and importing the CLI loads neither
scipy nor multiprocessing."""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ccflab

MODULES = sorted(Path(ccflab.__file__).parent.glob("*.py"))
# the package's ``__init__`` re-exports names defined elsewhere by design
HOME_MODULES = [p for p in MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = [alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module != "__future__"
                for alias in node.names]
    # ``import a.b`` binds ``a``
    imported += [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(declared_all(tree))
    return [name for name in imported if name not in used | exported]


def declared_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def foreign_exports(source: str) -> list[str]:
    """``__all__`` entries not bound by a top-level def, class or assignment."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return [name for name in declared_all(tree) if name not in defined]


def test_detects_unused_import():
    assert unused_imports("from os import path, sep\nprint(sep)\n") == ["path"]
    assert unused_imports("from os import path\n__all__ = ['path']\n") == []
    assert unused_imports("import os, struct\nimport numpy as np\n"
                          "print(os.sep, np.pi)\n") == ["struct"]
    assert unused_imports("import os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_foreign_export():
    assert foreign_exports("from os import sep\n__all__ = ['sep']\n") == ["sep"]
    assert foreign_exports("import os\n__all__ = ['os']\n") == ["os"]
    assert foreign_exports("def f(): pass\nclass C: pass\nX = 1\nY: int = 2\n"
                           "__all__ = ['f', 'C', 'X', 'Y']\n") == []
    assert foreign_exports("x = 1\n") == []


@pytest.mark.parametrize("path", HOME_MODULES, ids=[p.name for p in HOME_MODULES])
def test_exports_defined_here(path):
    assert foreign_exports(path.read_text()) == []


def owners(tree: ast.Module) -> dict[ast.AST, str]:
    """The top-level function or ``Class.method`` each node of ``tree`` lies
    in, ``<module>`` outside any function."""
    owner = {}
    for top in tree.body:
        for node in ast.walk(top):
            owner[node] = top.name if isinstance(top, ast.FunctionDef) else "<module>"
        for method in top.body if isinstance(top, ast.ClassDef) else ():
            for node in ast.walk(method) if isinstance(method, ast.FunctionDef) else ():
                owner[node] = f"{top.name}.{method.name}"
    return owner


def call_sites(source: str, name: str, args: tuple | None = None) -> list[str]:
    """Sorted names of the top-level functions and the ``Class.method``s
    that call ``name`` (as a bare name or an attribute), one entry per call
    (``<module>`` for a call outside any function).  With ``args``, only calls
    with exactly that many positional arguments whose constant ones (the
    non-``None`` entries) match count."""
    tree = ast.parse(source)
    owner = owners(tree)

    def matches(call: ast.Call) -> bool:
        if name not in {getattr(call.func, "attr", None), getattr(call.func, "id", None)}:
            return False
        if args is None:
            return True
        return len(call.args) == len(args) and all(
            want is None or (isinstance(got, ast.Constant) and got.value == want)
            for got, want in zip(call.args, args))

    return sorted(owner[node] for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and matches(node))


def test_detects_generator_sites():
    assert call_sites("import numpy as np\ndef f(s):\n"
                      "    return np.random.default_rng(s)\n"
                      "g = default_rng(0)\n"
                      "class C:\n    r = default_rng(1)\n"
                      "    def m(self):\n        return default_rng(2)\n",
                      "default_rng") == ["<module>", "<module>", "C.m", "f"]


def test_one_generator_site():
    # every random stream is a keyed child of SeedSequence(seed): one rule
    sites = {path.name: call_sites(path.read_text(), "default_rng") for path in MODULES}
    assert {name: s for name, s in sites.items() if s} == {"noise.py": ["stream"]}


def test_detects_wiener_stream_sites():
    source = ("def f(s):\n    return stream(s, 0)\n"
              "def g(s, i):\n    return stream(s, 0, i), stream(s, 1), stream(s)\n"
              "h = noise.stream(3, 0)\n")
    assert call_sites(source, "stream", (None, 0)) == ["<module>", "f"]


def test_one_wiener_stream_site():
    # a path's Brownian increments have one rule: noise.wiener_increments
    sites = {path.name: call_sites(path.read_text(), "stream", (None, 0))
             for path in MODULES}
    assert {name: s for name, s in sites.items() if s} == {"noise.py": ["wiener_increments"]}


def forward_normalized(source: str, name: str) -> bool:
    """Whether every call of ``name`` in ``source`` passes ``norm="forward"``."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
             and name in {getattr(node.func, "attr", None), getattr(node.func, "id", None)}]
    return all(any(kw.arg == "norm" and isinstance(kw.value, ast.Constant)
                   and kw.value.value == "forward" for kw in call.keywords)
               for call in calls)


def test_detects_unnormalized_transforms():
    assert forward_normalized("np.fft.fft(a, norm='forward')\nfft(b, norm='forward')\n",
                              "fft")
    assert not forward_normalized("np.fft.fft(a, norm='forward')\nnp.fft.fft(b) / n\n",
                                  "fft")
    assert not forward_normalized("np.fft.ifft(a, norm='backward')\n", "ifft")


def test_each_representation_has_one_transform_rule():
    # every transform of a real field is spectral's rfft (Field.from_samples,
    # dealiased_coefficients) or irfft (inverse_samples); every transform of
    # carrier envelopes is modulated's fft (packet, dealiased_envelopes) or
    # ifft (ModulatedField.phys, mod_transport_product); each representation
    # normalizes forward.  The one other complex pair transforms the
    # modulated samples of lambda_shift_residual, forward-normalized too.
    sources = {path.name: path.read_text() for path in MODULES}
    sites = {name: {fn: call_sites(source, fn) for fn in ("fft", "ifft", "rfft", "irfft")}
             for name, source in sources.items()}
    real = {name: sorted(s["rfft"] + s["irfft"]) for name, s in sites.items()
            if s["rfft"] + s["irfft"]}
    assert real == {"spectral.py": ["Field.from_samples", "dealiased_coefficients",
                                    "inverse_samples"]}
    complex_ = {name: sorted(s["fft"] + s["ifft"]) for name, s in sites.items()
                if s["fft"] + s["ifft"]}
    assert complex_ == {
        "modulated.py": ["ModulatedField.phys", "dealiased_envelopes",
                         "mod_transport_product", "packet"],
        "spectral.py": ["lambda_shift_residual", "lambda_shift_residual"]}
    assert all(forward_normalized(sources["spectral.py"], fn)
               for fn in ("rfft", "irfft", "fft", "ifft"))
    assert all(forward_normalized(sources["modulated.py"], fn) for fn in ("fft", "ifft"))


def test_real_fields_step_through_em_step():
    # rk4 steps real-field coefficients only inside em_step (the SPDE paths
    # and the deterministic stream); its other caller steps carrier envelopes
    sites = {path.name: call_sites(path.read_text(), "rk4") for path in MODULES}
    assert {name: s for name, s in sites.items() if s} == {
        "integrate.py": ["em_step"], "instability.py": ["simulate_actual_mod"]}


def step_counts(source: str) -> list[str]:
    """Sorted ``owner: quotient`` of each ``round``, ``int``, ``floor`` or
    ``ceil`` of a quotient (``/`` or ``//``) in ``source``, the owner as in
    :func:`owners`: every way to turn a time over a step into a count."""
    tree = ast.parse(source)
    owner = owners(tree)
    return sorted(f"{owner[node]}: {ast.unparse(node.args[0])}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and {getattr(node.func, "attr", None), getattr(node.func, "id", None)}
                  & {"round", "int", "floor", "ceil"}
                  and node.args and isinstance(node.args[0], ast.BinOp)
                  and isinstance(node.args[0].op, (ast.Div, ast.FloorDiv)))


def test_detects_step_counts():
    source = ("def f(h, dt):\n    return int(round(h / dt)), round(h * dt), int(h // dt)\n"
              "class C:\n    def m(self):\n        return math.ceil(self.h / 2)\n"
              "n = np.floor(T / dt) + int(len(x)) + round(x)\n")
    assert step_counts(source) == ["<module>: T / dt", "C.m: self.h / 2", "f: h / dt",
                                   "f: h // dt"]


def test_one_horizon_step_count():
    # every loop that steps to a horizon takes its step count from
    # integrate.whole_steps, which checks that the horizon is a whole number
    # of steps; the other two turn a snapshot's time into its index and the
    # record cadence of 0.02 into a stride
    sites = {path.name: step_counts(path.read_text()) for path in MODULES}
    assert {name: s for name, s in sites.items() if s} == {
        "cli.py": ["cmd_girsanov: 0.02 / dt"],
        "girsanov.py": ["girsanov_residual: tu / cfg.dt"],
        "integrate.py": ["whole_steps: horizon / dt"]}


def test_spde_paths_run_through_run_paths():
    # every study launches its SPDE paths through ensemble.run_paths, whose
    # per-seed task is the one caller of simulate_path
    sites = {path.name: call_sites(path.read_text(), "simulate_path") for path in MODULES}
    assert {name: s for name, s in sites.items() if s} == {
        "ensemble.py": ["_PathTask.__call__"]}


def bench_instrument():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
    spec = importlib.util.spec_from_file_location("bench_instrument", path)
    instrument = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(instrument)
    return instrument


def subscript_keys(source: str, name: str) -> list[str]:
    """Sorted constant string keys of the subscripts ``name["..."]``."""
    return sorted(node.slice.value for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.value, ast.Name) and node.value.id == name
                  and isinstance(node.slice, ast.Constant)
                  and isinstance(node.slice.value, str))


def test_bench_names_resolve():
    # perfbench/instrument.py looks its wrapped functions up with getattr, so a
    # rename or deletion here would make every traced benchmark run raise
    instrument = bench_instrument()
    labels = [f"{home}.{name}" for home, names in instrument.TRACED.items()
              for name in names] + list(instrument.OBSERVERS)
    missing = []
    for label in labels:
        home, name = label.split(".")
        assert home in instrument.MODULES, label
        if not hasattr(importlib.import_module(f"ccflab.{home}"), name):
            missing.append(label)
    noise = importlib.import_module("ccflab.noise")
    missing += [f"noise.{cls}.components" for cls in instrument.NOISE_CLASSES
                if "components" not in vars(getattr(noise, cls, object))]
    assert missing == []


def test_detects_subscript_keys():
    source = ('def f(args, out):\n    n = int(args["n"]) + args["m"]\n'
              '    return out["x"], args[0], other["y"]\n')
    assert subscript_keys(source, "args") == ["m", "n"]


def test_bench_observers_read_parameters():
    # an observer reads the bound arguments of the function it wraps by name,
    # so dropping or renaming one of those parameters would make every
    # benchmark run of that study raise
    instrument = bench_instrument()
    unknown = []
    for label, observer in instrument.OBSERVERS.items():
        home, name = label.split(".")
        params = inspect.signature(getattr(importlib.import_module(f"ccflab.{home}"),
                                           name)).parameters
        args = next(iter(inspect.signature(observer).parameters))
        unknown += [f"{label}: {key}"
                    for key in subscript_keys(inspect.getsource(observer), args)
                    if key not in params]
    assert unknown == []


def cli_import_loads(package: str) -> list[str]:
    """The modules of ``package`` that importing ``ccflab.cli`` loads, in a
    fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ccflab.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, ccflab.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return ast.literal_eval(out.stdout.strip())


def test_cli_import_loads_no_scipy():
    # numpy is the only dependency; scipy would cost about half the import
    # time of every CLI run
    assert cli_import_loads("scipy") == []


def test_cli_import_loads_no_multiprocessing():
    # only a pool of workers needs it (run_paths imports it there), and no
    # study runs one at its defaults
    assert cli_import_loads("multiprocessing") == []


def reached_defs(sources: dict[str, str], root: tuple[str, str]) -> set[tuple[str, str]]:
    """``(module, name)`` of the top-level defs, classes and assigned names
    of ``sources`` (module name to source) in the static closure of the def
    ``root`` and of every module's top-level statements other than imports:
    a reached def, class or assignment reaches each top-level def, class or
    assigned name, in any module, that it reads as a bare name or mentions as
    an attribute.  A class reaches what its methods mention."""
    defs, todo = {}, []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((module, node))
                continue
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            for target in targets:
                if isinstance(target, ast.Name):
                    defs.setdefault(target.id, []).append((module, node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.append(node)
    reached = {root}
    todo += [node for module, node in defs.get(root[1], ()) if module == root[0]]
    while todo:
        for node in ast.walk(todo.pop()):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            for module, target in defs.get(name, ()):
                if (module, name) not in reached:
                    reached.add((module, name))
                    todo.append(target)
    return reached


def test_detects_unreached_defs():
    sources = {
        "a": "import b\nfrom b import lonely\n"
             "def main():\n    return b.helper(1)\n"
             "def dead():\n    return spare()\n"
             "TABLE = {'k': listed}\n",
        "b": "LIMIT = 3\nSPARE_LIMIT: int = 4\n"
             "def helper(x):\n    return Inner(min(x, LIMIT))\n"
             "class Inner:\n    def m(self):\n        return self.method_target()\n"
             "def method_target(): pass\n"
             "def listed(): pass\n"
             "def spare(): pass\n"
             "def lonely(): pass\n",
    }
    assert reached_defs(sources, ("a", "main")) == {
        ("a", "main"), ("b", "helper"), ("b", "LIMIT"), ("b", "Inner"),
        ("b", "method_target"), ("b", "listed")}


def test_public_names_reached():
    # a public name that neither a study nor the benchmark runs is a helper
    # only the tests call: it belongs in tests/ as a reference, or nowhere
    sources = {path.stem: path.read_text() for path in HOME_MODULES}
    reached = {f"{module}.{name}"
               for module, name in reached_defs(sources, ("cli", "main"))}
    instrument = bench_instrument()
    wrapped = {f"{home}.{name}" for home, names in instrument.TRACED.items()
               for name in names} | set(instrument.OBSERVERS)
    unreached = {f"{module}.{name}" for module, source in sources.items()
                 for name in declared_all(ast.parse(source))} - reached
    assert unreached - wrapped == set()
