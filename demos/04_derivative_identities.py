"""Log-derivatives of the determinant from the resolvent moments.

The expansion moments Gamma_1, Gamma_2 of the Riemann-Hilbert solution
give every endpoint and time derivative of log det in closed form.
Central finite differences of the determinant serve as the oracle.
"""

from gapdet import isomono


def show(name, rep):
    print(name)
    for key, v in rep["a"].items():
        print(f"  d/d a{key}:   fd = {v['fd']:+.8f}   "
              f"moments = {v['formula']:+.8f}   rel = {v['rel_mismatch']:.1e}")
    for key, v in rep["tau"].items():
        print(f"  d/d tau_{key}: fd = {v['fd']:+.8f}   "
              f"moments = {v['formula']:+.8f}   rel = {v['rel_mismatch']:.1e}")
    print()


show("Airy, two times, intervals [0,inf) x [0,inf), tau = (0, 1):",
     isomono.airy_derivative_report([[0.0], [0.0]], [0.0, 1.0], m=160))

show("Pearcey, one time, interval [-1, 1]:",
     isomono.pearcey_derivative_report([[-1.0, 1.0]], [0.0], m=120))

show("Pearcey, two times, intervals [-1, 1] x [-1, 1], tau = (0, 1):",
     isomono.pearcey_derivative_report([[-1.0, 1.0], [-1.0, 1.0]],
                                       [0.0, 1.0], m=110))
