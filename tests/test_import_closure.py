"""What a fresh process imports.

Packages resolve their exports on first access (``repro._lazy``), and
scipy loads only inside a scaling fit.  Every check runs in a fresh
interpreter: this suite has long since imported everything, so checking
``sys.modules`` here would hide a regression.
"""

import json
import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: what a cold analysis must not load: the sweep tier, the shard pool,
#: the trace store, the static validator, the HTML report and the service
NOT_ON_THE_ANALYSIS_PATH = (
    "repro.tools.sweep", "repro.core.shard", "repro.core.tracestore",
    "repro.static.validate", "repro.tools.htmlreport", "repro.service",
)


def _fresh(code: str):
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_session_and_cli_load_no_scipy():
    loaded = _fresh(
        "import json, sys\n"
        "import repro.apps.registry, repro.tools.session, repro.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_session_loads_only_the_analysis_path():
    loaded = set(_fresh(
        "import json, sys\n"
        "import repro.apps.registry, repro.tools.session\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    assert "repro.tools.session" in loaded
    assert sorted(loaded.intersection(NOT_ON_THE_ANALYSIS_PATH)) == []


def test_table_fed_sharded_run_loads_no_trace_store_or_pool():
    # a table-fed run records nothing and, in process, starts no pool
    loaded = set(_fresh(
        "import json, sys\n"
        "from repro.apps.registry import build_workload\n"
        "from repro.tools.session import AnalysisSession\n"
        "session = AnalysisSession(build_workload('fig1'), shards=2,\n"
        "                          shard_jobs=1).run()\n"
        "assert session.executor_ran == 'enumerated'\n"
        "print(json.dumps(sorted(sys.modules)))\n"))
    assert "repro.core.shard" in loaded
    assert "repro.core.tracestore" not in loaded
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []


def test_every_export_resolves():
    result = _fresh(
        "import importlib, json, pkgutil\n"
        "import repro\n"
        "names = {}\n"
        "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not info.ispkg:\n"
        "        continue\n"
        "    pkg = importlib.import_module(info.name)\n"
        "    names[info.name] = [n for n in pkg.__all__\n"
        "                        if getattr(pkg, n) is None]\n"
        "scope = {}\n"
        "exec('from repro import *', scope)\n"
        "names['*'] = sorted(set(repro.__all__) - set(scope))\n"
        "print(json.dumps(names))\n")
    assert {"repro.core", "repro.tools", "repro.static", "repro.model",
            "repro.sim", "repro.apps"} <= set(result)
    assert all(unresolved == [] for unresolved in result.values()), result


def test_export_wins_over_its_submodule():
    # importing the session loads the submodule repro.tools.recommend;
    # the package name still means the function it exports
    kinds = _fresh(
        "import json\n"
        "import repro.tools.session\n"
        "from repro.tools import recommend, render_table2\n"
        "import repro.tools as tools\n"
        "print(json.dumps([type(recommend).__name__,\n"
        "                  type(tools.recommend).__name__,\n"
        "                  type(render_table2).__name__]))\n")
    assert kinds == ["function", "function", "function"]
