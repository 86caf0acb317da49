"""Immersed-boundary simulation of an elastic shell in a periodic viscous fluid.

Modules:

- geometry   : discrete differential geometry of the reference surface
- shell      : coefficient tensors and the elastic force operator
- fluid      : FFT-based implicit step for the periodic Navier-Stokes system
- coupling   : smoothed-delta force spreading and velocity interpolation
- simulation : configuration, helicoidal model shell, time loop
- io         : snapshot files, displacement graymaps, CSV tables
- harness    : error norms, convergence rates, self-checks
- cli        : the `ibshell` command
"""

__version__ = "0.1.0"
