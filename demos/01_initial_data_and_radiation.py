"""Bump data and its radiation fields.

Builds a two-component data set from smooth compactly supported bumps,
tabulates the radiation fields F_j(sigma) and their sigma-derivatives, and
fits the far-field decay rate (the theory says |dF| <= C <sigma>^{-3/2}).

Run:  python demos/01_initial_data_and_radiation.py
"""

import numpy as np

from wavelab import BumpSpec, InitialData, fit_sigma_decay, radiation_table
from wavelab.bumps import profile_derivatives

data = InitialData(
    g1=(BumpSpec((0.0, 0.0), 1.0, 1.0),),
    g2=(BumpSpec((0.0, 0.0), 0.8, 0.6),),
    epsilon=0.2,
)
print(f"support radius R0 = {data.support_radius}")

# on the x-axis the centred bump is A w(x^2/R^2), with db/dx = A w' 2x/R^2
bump = data.g1[0]
a, r2 = bump.amplitude, bump.radius * bump.radius
xs = np.array([0.0, 0.25, 0.5, 0.75, 0.99, 1.0, 1.5])
w, wp, _ = profile_derivatives(xs * xs / r2)
print("\nbump values along the x-axis:")
for x, v, dv in zip(xs, a * w, a * wp * (2.0 * xs / r2)):
    print(f"  x={x:5.2f}:  b={v: .6f}   db/dx={dv: .6f}")

print("\ntabulating radiation fields on sigma in [-45, R0+1] ...")
sigma = np.arange(-45.0, data.support_radius + 1.0, 0.05)
table = radiation_table(data, sigma, [0.0])

for s in (-20.0, -5.0, -1.0, 0.0, 0.5, 0.9):
    i = int(np.argmin(np.abs(sigma - s)))
    print(f"  sigma={s:6.2f}:  dF1={table.dF[0, i, 0]: .6f}   dF2={table.dF[1, i, 0]: .6f}")

slopes = fit_sigma_decay(table, (-40.0, -10.0))
print(f"\nfitted decay slopes of |dF| on sigma in [-40, -10]: {slopes.ravel()}")
print("(the asymptotic exponent is -3/2)")

tail = sigma > data.support_radius
print(f"max |F| beyond the support radius: {np.abs(table.F[:, tail, :]).max()} (exact zero)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(1, 2, figsize=(10, 3.6))
    ax[0].plot(sigma, table.dF[0, :, 0], label="dF1")
    ax[0].plot(sigma, table.dF[1, :, 0], label="dF2")
    ax[0].set_xlim(-6, 1.5)
    ax[0].set_xlabel("sigma")
    ax[0].legend()
    ax[0].set_title("radiation-field derivatives")
    mask = (sigma < -5)
    ax[1].loglog(-sigma[mask], np.abs(table.dF[0, mask, 0]))
    ax[1].loglog(-sigma[mask], 0.05 * (-sigma[mask]) ** -1.5, "--", label="~ sigma^-3/2")
    ax[1].set_xlabel("-sigma")
    ax[1].legend()
    ax[1].set_title("far-field decay")
    fig.tight_layout()
    fig.savefig("demo01_radiation.png", dpi=120)
    print("wrote demo01_radiation.png")
except ImportError:
    print("matplotlib not installed; skipping the plot")
