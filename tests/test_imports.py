"""The import graph: lazy package namespaces and the cold run path.

A cached ``repro-gradual run`` executes only the compile cache, image
decoding, the register VM and the semantics registry, so that is all it may
import.  The module set is checked in a fresh interpreter: it is
deterministic, unlike a timing.  The namespace tests check that the lazy
package ``__init__`` modules still export everything they list.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(repro.__file__).resolve().parent.parent
README = ROOT / "README.md"

#: Packages and modules a cache-hit ``run --engine rvm`` of a coercion
#: image must not load.
NOT_ON_THE_HIT_PATH = (
    "repro.properties",
    "repro.gen",
    "repro.surface",
    "repro.serve",
    "repro.experiment",
    "repro.batch",
    "repro.supercoercions",
    "repro.lambda_b.reduction",
    "repro.compiler.lower",
    "repro.compiler.disasm",
    # The stack VM, the translations, the CEK machine (the VMs' oracle) and
    # the trace event schema are not executed by a hit either.
    "repro.compiler.vm",
    "repro.translate",
    "repro.machine.cek",
    "repro.obs.events",
    # λB/λC terms and coercions, the optimizer, and the runtimes of the
    # other semantics: a coercion image needs λS coercions and ``#`` only.
    "repro.core.terms",
    "repro.lambda_c",
    "repro.threesomes",
    "repro.semantics.transient",
    "repro.semantics.erasure",
    "repro.compiler.opt",
)

#: The runtime a cache hit of each other semantics loads, and no other one.
#: (The coercion runtime is the λS policy in ``repro.machine.policy``, next
#: to the policy interface every semantics loads.)
RUNTIMES = {
    "threesome": "repro.threesomes",
    "transient": "repro.semantics.transient",
    "erasure": "repro.semantics.erasure",
}

_RUN_AND_LIST_MODULES = """
import json, sys
from repro.cli import main
code = main(sys.argv[1:])
print(json.dumps({"exit": code,
                  "modules": sorted(m for m in sys.modules if m.startswith("repro"))}))
"""


def _cli_in_fresh_interpreter(argv: list[str], cache_dir: Path) -> tuple[int, set[str], str]:
    """Run ``repro.cli.main(argv)`` in a new interpreter: its exit code, the
    ``repro`` modules loaded by the end of the run, and what it printed."""
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_GRADUAL_CACHE_DIR=str(cache_dir))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    report = json.loads(last)
    return report["exit"], set(report["modules"]), "\n".join(printed)


def _loaded(modules: set[str], name: str) -> bool:
    return name in modules or any(m.startswith(name + ".") for m in modules)


SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"


class TestColdRunPath:
    def test_a_cache_hit_loads_no_oracle_generator_or_front_end(self, tmp_path):
        program = tmp_path / "square.grad"
        program.write_text(SQUARE)
        argv = ["run", "--engine", "rvm", str(program)]
        cache = tmp_path / "cache"

        miss_exit, miss_modules, _ = _cli_in_fresh_interpreter(argv, cache)
        hit_exit, hit_modules, _ = _cli_in_fresh_interpreter(argv, cache)

        assert miss_exit == hit_exit == 0
        # A miss compiles the source, so the front end must load ...
        assert _loaded(miss_modules, "repro.surface")
        # ... and a hit reads the image instead.
        assert {"repro.compiler.cache", "repro.compiler.rvm"} <= hit_modules
        loaded = [name for name in NOT_ON_THE_HIT_PATH if _loaded(hit_modules, name)]
        assert loaded == [], f"a cache-hit run imported {loaded}"

    @pytest.mark.parametrize("semantics", ["coercion", *RUNTIMES])
    def test_a_cache_hit_loads_only_its_own_semantics(self, tmp_path, semantics, capsys):
        from repro.cli import main

        program = tmp_path / "square.grad"
        program.write_text(SQUARE)
        argv = ["run", "--engine", "rvm", "--semantics", semantics, str(program)]
        cache = tmp_path / "cache"

        _cli_in_fresh_interpreter(argv, cache)
        hit_exit, hit_modules, hit_output = _cli_in_fresh_interpreter(argv, cache)

        own = RUNTIMES.get(semantics)
        assert own is None or _loaded(hit_modules, own)
        loaded = [name for name in NOT_ON_THE_HIT_PATH
                  if name != own and _loaded(hit_modules, name)]
        assert loaded == [], f"a {semantics} cache hit imported {loaded}"
        # The hit prints what the CEK machine computes under the same semantics.
        assert main(["run", "--engine", "machine", "--semantics", semantics,
                     str(program)]) == hit_exit == 0
        assert capsys.readouterr().out.strip() == hit_output.strip()


_POOL_JOBS_AND_LIST_NEW_MODULES = """
import json, sys
from repro.serve.pool import WorkerPool, _handle_job
WorkerPool(1).shutdown()
before = set(sys.modules)
for path in sys.argv[1:]:
    source = open(path).read()
    for semantics in ("coercion", "threesome", "transient", "erasure"):
        for engine in ("rvm", "vm"):
            for use_cache in (False, True):
                _handle_job({"op": "run_source", "source": source, "engine": engine,
                             "semantics": semantics, "opt_level": 2, "fuel": None,
                             "use_cache": use_cache, "cache_dir": None}, {}, {})
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("repro"))))
"""


class TestWorkerPoolPreload:
    def test_a_worker_job_imports_nothing_the_pool_did_not_preload(self, tmp_path):
        # Workers are forked per pool (the experiment driver starts one per
        # call), so a module a job imports lazily is compiled again in every
        # new worker, on its first job.
        programs = sorted(str(p) for p in (ROOT / "examples" / "programs").glob("*.grad"))
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   REPRO_GRADUAL_CACHE_DIR=str(tmp_path / "cache"))
        proc = subprocess.run(
            [sys.executable, "-c", _POOL_JOBS_AND_LIST_NEW_MODULES, *programs],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []


def _all_packages() -> list[types.ModuleType]:
    names = ["repro"] + [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
                         if info.ispkg]
    return [importlib.import_module(name) for name in names]


def _import_every_module() -> None:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class TestLazyNamespaces:
    @pytest.mark.parametrize("package", _all_packages(), ids=lambda p: p.__name__)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        listed = set(dir(package))
        for name in package.__all__:
            assert getattr(package, name) is not None, f"{package.__name__}.{name}"
            assert name in listed, f"dir({package.__name__}) lacks {name!r}"

    @pytest.mark.parametrize("package", _all_packages(), ids=lambda p: p.__name__)
    def test_unknown_names_raise_attribute_error(self, package):
        with pytest.raises(AttributeError):
            getattr(package, "no_such_name")

    def test_exported_functions_are_not_shadowed_by_submodules(self):
        # Importing a submodule binds it on its package; a function exported
        # under the same name must survive that (``translate.b_to_c``,
        # ``lambda_b.embed``).
        _import_every_module()
        for name in ("b_to_c", "b_to_s", "c_to_s", "s_to_c", "c_to_b"):
            value = getattr(repro.translate, name)
            assert callable(value) and not isinstance(value, types.ModuleType), name
        for package in _all_packages():
            for name in package.__all__:
                value = getattr(package, name)
                if isinstance(value, types.ModuleType):
                    assert package is repro and value.__name__ == f"repro.{name}", (
                        f"{package.__name__}.{name} is the module {value.__name__}"
                    )

    def test_star_import_binds_every_exported_name(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["run"] is repro.api.run
        assert namespace["INT"] is repro.core.types.INT

    def test_readme_api_snippet_and_package_quickstart_run(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert blocks, "README has no python snippet"
        quickstart = repro.__doc__.split("Quickstart::", 1)[1]
        snippets = blocks + ["\n".join(line[4:] for line in quickstart.splitlines())]
        for snippet in snippets:
            proc = subprocess.run(
                [sys.executable, "-c", snippet], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
            )
            assert proc.returncode == 0, f"{snippet}\n{proc.stderr}"
