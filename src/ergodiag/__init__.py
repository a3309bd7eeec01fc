"""Diagnostics for convergence of time averages of non-stationary series.

Decides, exactly for specified process models and empirically for sampled
paths, whether running averages settle on the average of the means:

* :mod:`~ergodiag.model`: the exact variance identity
  (``time_average_variance``), growth classification of the covariance sum
  (``classify_growth``), correlation time and effective sample size;
* :mod:`~ergodiag.estimators`: their data-side counterparts, from one
  ``SamplePath`` or from the array of per-replicate time averages
  (``ensemble_mse``, ``empirical_tail``);
* :mod:`~ergodiag.bounds`: Markov, Chebyshev and Paley-Zygmund bounds;
* :mod:`~ergodiag.processes`: seeded process models (``Model``; the four
  registered families are ``FAMILIES``) with their exact moments
  (``sample_path``);
* :mod:`~ergodiag.harness`: the Monte Carlo verification harness
  (``run_experiment``) for any ``Model``, driven from the command line by
  :mod:`~ergodiag.cli` for the registered families.

The package re-exports every name in the ``__all__`` of these five modules,
in that order, after ``__version__``: a public name is declared once, in
its module.  Importing the package loads neither :mod:`~ergodiag.cli` nor
the CSV row writer and number reader it uses.
"""

from . import bounds, estimators, harness, model, processes
from .bounds import *
from .estimators import *
from .harness import *
from .model import *
from .processes import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += model.__all__
__all__ += estimators.__all__
__all__ += bounds.__all__
__all__ += processes.__all__
__all__ += harness.__all__
