"""Irreducible SO(3) structures on 5-dimensional Riemannian geometries.

The package is organized around the defining totally symmetric ternary form:

- :mod:`so3five.scalar`     exact Q(sqrt3) arithmetic, floats, linear algebra
- :mod:`so3five.exterior`   coframe models, wedge / Hodge / exterior derivative
- :mod:`so3five.upsilon`    the ternary form, canonical frames, stabilizer
- :mod:`so3five.repr`       decompositions of 2-tensors, connections, curvature
- :mod:`so3five.connection` Levi-Civita and characteristic connections, Ricci;
                            ``Analysis`` reads the stages a model keeps at
                            one tolerance, each computed on first read
- :mod:`so3five.catalog`    the homogeneous example geometries
- :mod:`so3five.spin`       Clifford algebra, spin(3), constant-spinor obstruction
- :mod:`so3five.twistor`    twistor coframe, CR integrability, the G2 3-form
- :mod:`so3five.cli`        command-line front end
"""

__version__ = "0.1.0"
