"""The package's Gauss-Legendre rule: accuracy against a 40-digit rule, its
symmetries and exactness, and that building it leaves no thread spinning."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from leo_channel.quadrature import _gauss_rule
from oracles import gauss_legendre_mp

ROOT = Path(__file__).resolve().parents[1]
SIZES = [1, 2, 3, 64, 384]


@pytest.mark.parametrize("n", SIZES)
def test_rule_matches_the_40_digit_rule(n):
    x, w = _gauss_rule(n)
    xo, wo = gauss_legendre_mp(n)
    with mpmath.workdps(40):
        node_err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(x, xo))
        weight_err = max(abs(mpmath.mpf(float(a)) / b - 1) for a, b in zip(w, wo))
    assert node_err <= 2.3e-16
    # NumPy's leggauss misses this bound at 384 nodes (3.9e-10)
    assert weight_err <= 1e-11


@pytest.mark.parametrize("n", SIZES)
def test_rule_is_ascending_symmetric_and_read_only(n):
    x, w = _gauss_rule(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    assert not x.flags.writeable and not w.flags.writeable


@pytest.mark.parametrize("n", SIZES)
def test_rule_integrates_even_monomials_to_degree_2n_minus_2(n):
    x, w = _gauss_rule(n)
    err = max(abs(math.fsum(w * x ** (2 * m)) - 2.0 / (2 * m + 1)) for m in range(n))
    assert err <= 1e-15


def test_no_helper_thread_spins_after_the_rule_is_built():
    # import numpy wakes the BLAS helper threads by itself; 0.5 s of idling
    # lets that end. The CapModel builds the 384-node rule and the joint grid
    # the per-plane rule's; a helper thread that spins after either burns CPU in
    # the idle 0.3 s that follows it, unless the work outlasts the spin
    code = """if True:
        import math
        import time
        import leo_channel
        from leo_channel.distributions import joint_pdf_grid
        from leo_channel.geometry import ShellConfig, UserGeometry
        from leo_channel.visibility import CapModel

        def idle_cpu_s():
            start = time.process_time()
            time.sleep(0.3)
            return time.process_time() - start

        time.sleep(0.5)
        shell = ShellConfig()
        cap = CapModel(shell, UserGeometry.for_shell(shell, math.pi / 2,
                                                     math.radians(30.0)))
        cap.p_sat, cap.nu_max_hz
        after_model = idle_cpu_s()
        joint_pdf_grid(cap, tau_step_s=8.4e-5)
        print(after_model, idle_cpu_s())
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert max(map(float, done.stdout.split())) < 0.02
