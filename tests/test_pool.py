import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import lesionwise
from lesionwise import _pool


def test_worker_count_is_the_variable_else_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("LESIONWISE_THREADS", raising=False)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _pool.worker_count() == cpus
    for raw, want in (("1", 1), ("3", 3), (" 2 ", 2)):
        monkeypatch.setenv("LESIONWISE_THREADS", raw)
        assert _pool.worker_count() == want


@pytest.mark.parametrize("raw", ["", "0", "-1", "1.5", "two"])
def test_bad_worker_count_raises(monkeypatch, raw):
    monkeypatch.setenv("LESIONWISE_THREADS", raw)
    with pytest.raises(ValueError, match="LESIONWISE_THREADS must be an integer >= 1"):
        _pool.worker_count()
    with pytest.raises(ValueError, match="LESIONWISE_THREADS"):
        _pool.run_all([lambda: 1, lambda: 2])


@pytest.mark.parametrize("threads, n_calls", [("1", 4), ("2", 1)])
def test_one_worker_or_one_call_runs_on_the_calling_thread(monkeypatch, threads, n_calls):
    monkeypatch.setenv("LESIONWISE_THREADS", threads)
    names = _pool.run_all([lambda: threading.current_thread().name] * n_calls)
    assert names == [threading.current_thread().name] * n_calls


@pytest.mark.parametrize("n_calls", [0, 1])
def test_fewer_than_two_calls_run_without_reading_the_count(monkeypatch, n_calls):
    monkeypatch.setenv("LESIONWISE_THREADS", "two")  # raises if read
    assert _pool.run_all([lambda: 7] * n_calls) == [7] * n_calls


def test_every_call_ends_before_the_first_failure_in_order_raises(monkeypatch):
    monkeypatch.setenv("LESIONWISE_THREADS", "2")
    done = []

    def slow():
        time.sleep(0.2)
        done.append("slow")

    def fail(msg):
        raise RuntimeError(msg)

    with pytest.raises(RuntimeError, match="first"):
        _pool.run_all([slow, lambda: fail("first"), lambda: fail("second"),
                       lambda: done.append("last")])
    assert sorted(done) == ["last", "slow"]


def test_run_all_inside_a_pool_task_runs_inline_and_finishes():
    # Both workers hold an outer call that starts inner calls; were those
    # queued on the pool, the outer calls would wait on them forever.
    script = ("import threading\n"
              "from lesionwise import _pool\n"
              "def name():\n"
              "    return threading.current_thread().name\n"
              "def outer():\n"
              "    return name(), _pool.run_all([name, name])\n"
              "for me, inner in _pool.run_all([outer, outer]):\n"
              "    assert me.startswith('lesionwise') and inner == [me, me], (me, inner)\n"
              "print('ok')\n")
    src = str(Path(lesionwise.__file__).parents[1])
    env = dict(os.environ, LESIONWISE_THREADS="2", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.stdout == "ok\n", proc.stderr
