"""Which modules a process loads: the HTTP client stack only once an HTTP oracle scores a batch itself.

Each check runs in a fresh interpreter, so modules imported by this test
process (or by other tests) cannot leak into the result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import scorefusion

SRC = str(Path(scorefusion.__file__).resolve().parent.parent)
HTTP_STACK = ("requests", "urllib3", "ssl", "http.client", "concurrent.futures")


def _loaded_after(*steps):
    """For each code step, run in order in one new process, the HTTP_STACK modules then loaded."""
    probe = ["import json, sys", "seen = []"]
    for step in steps:
        probe += [step, f"seen.append([m for m in {HTTP_STACK!r} if m in sys.modules])"]
    probe.append("print(json.dumps(seen))")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", "\n".join(probe)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_importing_the_package_loads_no_http_stack():
    assert _loaded_after("import scorefusion") == [[]]


def test_a_synthetic_experiment_loads_no_http_stack(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("synth.d = 2\nsynth.n = 120\nsynth.weights = 2.0, -1.0, 0.0\nsynth.seed = 3\n"
                   "methods = ml, llm, linear\nseeds = 0\nfolds.k = 3\n")
    argv = ["experiment", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert _loaded_after(f"from scorefusion.cli import main\nassert main({argv!r}) == 0") == [[]]
    assert (tmp_path / "out" / "report.json").exists()


def test_an_http_oracle_loads_http_client_only_once_a_batch_is_scored():
    built, scored = _loaded_after(
        "import socket\n"
        "from scorefusion import HttpOracle, HttpOracleConfig, LabeledDataset, OracleError, score_batch\n"
        "with socket.socket() as probe:  # a port that was free a moment ago refuses the connection\n"
        "    probe.bind(('127.0.0.1', 0))\n"
        "    port = probe.getsockname()[1]\n"
        "oracle = HttpOracle(HttpOracleConfig(url=f'http://127.0.0.1:{port}/score', model='judge-1',\n"
        "                                     retries=1, backoff=0.0))",
        "try:\n"
        "    score_batch(oracle, LabeledDataset.from_arrays([[0.0]], ids=['a']))\n"
        "except OracleError as exc:\n"
        "    assert 'refused' in str(exc), exc",
    )
    assert built == []
    assert scored == ["ssl", "http.client", "concurrent.futures"]  # and never requests or urllib3


def test_an_http_oracle_with_an_injected_session_loads_no_requests_stack():
    (after,) = _loaded_after(
        "import numpy as np\n"
        "from scorefusion import HttpOracle, HttpOracleConfig, LabeledDataset, score_batch\n"
        "class Response:\n    status_code, text = 200, '0.25'\n"
        "class Session:\n    def post(self, url, **kwargs):\n        return Response()\n"
        "config = HttpOracleConfig(url='http://127.0.0.1:9/score', model='judge-1')\n"
        "ds = LabeledDataset.from_arrays(np.zeros((3, 1)), ids=['a', 'b', 'c'])\n"
        "z = score_batch(HttpOracle(config, session=Session()), ds, column=True)\n"
        "assert z.tolist() == [0.25] * 3"
    )
    assert not {"requests", "urllib3", "ssl", "http.client"} & set(after)
    assert after == ["concurrent.futures"]  # the batch did run through the thread pool
