"""The noise threshold found by a full grid scan, as a reference for the bisecting one.

``scan_threshold`` evaluates r(Q) at every point of the 1e-3 grid over [0, 1/2],
checks that it is monotone decreasing (within 1e-12), takes the first cell
where it turns negative, and bisects that cell in floats exactly as
``sqkd.keyrate.noise_threshold`` does. Its outputs, exceptions and messages
are what the bisecting search must reproduce on every monotone rate.
"""
import sqkd.keyrate

GRID_STEP = 1e-3
MONOTONE_SLACK = 1e-12


def scan_threshold(model, tol=1e-6):
    if not tol > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    steps = round(0.5 / GRID_STEP)
    grid = [i * GRID_STEP for i in range(steps + 1)]
    rates = [sqkd.keyrate._point(q, model)[-1] for q in grid]
    if rates[0] <= 0.0:
        raise ArithmeticError(f"key rate at Q=0 is {rates[0]}, not positive")
    for i in range(steps):
        if rates[i + 1] > rates[i] + MONOTONE_SLACK:
            raise ValueError(
                f"key rate is not monotone decreasing near Q={grid[i]:.3f} "
                f"({rates[i]} -> {rates[i + 1]})"
            )
    bracket = next((i for i in range(steps) if rates[i] >= 0.0 > rates[i + 1]), None)
    if bracket is None:
        raise ArithmeticError(f"no sign change on [0, 0.5]: key rate at the boundary is {rates[-1]}")
    lo, hi = grid[bracket], grid[bracket + 1]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is down to adjacent floats
            break
        if sqkd.keyrate._point(mid, model)[-1] >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
