"""Independent references for the benchmark's correctness checks (numpy only).

Nothing here imports ``mshe``: each reference is computed apart from the
program it checks.

* ``lift_closed_form`` -- the manufactured smooth lift f = {1: g, X: d_x g}
  with g = sin(2 pi x / L) (1 + 0.3 cos(2 pi t / T)), in closed form.
* ``write_lift`` -- writes that lift as a modelled-distribution file: the
  SHEF field format (symbol channels stacked along time) plus its JSON
  sidecar, as documented in the repository README.
* ``pam3d_eps_c_monte_carlo`` -- a Monte Carlo estimate of eps * c_eps for
  the 3-d PAM: E[1 / (4 pi |X|)] with each coordinate of X the sum of two
  independent draws from the bump density ~ exp(-1/(1-u^2)) on (-1, 1).

Regenerate the lift input by hand with

    python3 perfbench/reference.py make-lift --out lift.shef
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from pathlib import Path

import numpy as np

#: the lift's grid: N space points, M time steps, box [-L/2, L/2) x [0, T)
LIFT_N, LIFT_M, LIFT_L, LIFT_T = 256, 16384, 2.0, 2.0
LIFT_GAMMA, LIFT_P = 2.0, 2.0


def lift_closed_form(N: int = LIFT_N, M: int = LIFT_M, L: float = LIFT_L,
                     T: float = LIFT_T):
    """g and d_x g at the grid's cell corners, time axis first."""
    ts = np.arange(M) * (T / M)
    xs = -L / 2 + np.arange(N) * (L / N)
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    amp = 1.0 + 0.3 * np.cos(2 * np.pi * tt / T)
    g = np.sin(2 * np.pi * xx / L) * amp
    gx = (2 * np.pi / L) * np.cos(2 * np.pi * xx / L) * amp
    return g, gx


def lift_error_bound(n_max: int, support: int = 3, L: float = LIFT_L,
                     T: float = LIFT_T) -> float:
    """Sup-norm tolerance for |R_{n_max} f - g| on the smooth lift.

    With the gradient channel present, the order-one spatial error cancels
    and what is left is the one-sided time shift (7 S^2 + 1) 4^-n times
    sup |d_t g| plus a second-order spatial term 4^-n sup |d_x^2 g|, S the
    wavelet support diameter.  The factor 3 is the same safety margin the
    function-level reconstruction test uses.
    """
    shift = (7 * support ** 2 + 1) * 4.0 ** -n_max
    dt_g = 0.3 * 2 * np.pi / T
    dxx_g = 1.3 * (2 * np.pi / L) ** 2
    return 3.0 * (shift * dt_g + 4.0 ** -n_max * dxx_g)


def write_lift(path) -> Path:
    """Write the lift as SHEF (version 1, space-time, d = 1) plus sidecar."""
    path = Path(path)
    g, gx = lift_closed_form()
    stacked = np.concatenate([g, gx], axis=0)
    n_sym = 2
    with open(path, "wb") as fh:
        fh.write(b"SHEF")
        fh.write(struct.pack("<IBBQQdd", 1, 1, 1, LIFT_N, LIFT_M * n_sym,
                             LIFT_L, LIFT_T * n_sym))
        fh.write(np.ascontiguousarray(stacked, dtype="<f8").tobytes())
    sidecar = {"symbols": ["1", "X"], "M": LIFT_M, "T": LIFT_T,
               "gamma": LIFT_GAMMA, "p": LIFT_P}
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True)
    return path


def read_shef(path) -> np.ndarray:
    """Values of a SHEF file, shaped (M, N) for d = 1 space-time fields."""
    with open(path, "rb") as fh:
        if fh.read(4) != b"SHEF":
            raise ValueError(f"{path}: not a SHEF file")
        _, kind, d, N, M, _, _ = struct.unpack("<IBBQQdd", fh.read(38))
        if kind != 1 or d != 1:
            raise ValueError(f"{path}: expected a d=1 space-time field")
        return np.frombuffer(fh.read(), dtype="<f8").reshape(M, N)


def _bump_draws(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws from the density ~ exp(-1/(1-u^2)) on (-1, 1) by rejection
    against the uniform envelope at the peak value e^-1."""
    out = np.empty(0)
    while out.size < n:
        u = rng.uniform(-1.0, 1.0, 2 * (n - out.size) + 1024)
        keep = rng.uniform(0.0, np.exp(-1.0), u.size) \
            < np.exp(-1.0 / np.maximum(1e-300, 1.0 - u ** 2))
        out = np.concatenate([out, u[keep]])
    return out[:n]


def pam3d_eps_c_monte_carlo(seed: int, n: int = 2_000_000, block: int = 250_000):
    """(mean, standard error) of E[1 / (4 pi |X|)], X_i = b + b' per axis.

    By parabolic scaling, eps * c_eps is this number for every eps small
    enough that G is exactly 1/(4 pi |x|) on the support of rho2.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    s1 = s2 = 0.0
    done = 0
    while done < n:
        m = min(block, n - done)
        x = (_bump_draws(rng, 3 * m) + _bump_draws(rng, 3 * m)).reshape(m, 3)
        v = 1.0 / (4.0 * np.pi * np.sqrt(np.sum(x ** 2, axis=1)))
        s1 += v.sum()
        s2 += (v ** 2).sum()
        done += m
    mean = s1 / n
    var = (s2 - n * mean ** 2) / (n - 1)
    return mean, float(np.sqrt(var / n))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Write the smooth lift input file.")
    ap.add_argument("command", choices=["make-lift"])
    ap.add_argument("--out", default="lift.shef")
    args = ap.parse_args(argv)
    print(write_lift(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
