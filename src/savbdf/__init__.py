"""savbdf: semi-implicit BDFk time integration with a scalar-auxiliary-variable
energy correction, spectral spatial discretization, and an experiment harness.

The public names are each module's ``__all__``, all re-exported here.
"""

from . import harness, problems, spectral, stepper, tableau

__version__ = "0.1.0"

# built before the star imports: `from .tableau import *` rebinds `tableau`
# from the submodule to the function
__all__ = [*tableau.__all__, *spectral.__all__, *problems.__all__,
           *stepper.__all__, *harness.__all__, "__version__"]

from .tableau import *  # noqa: E402,F403
from .spectral import *  # noqa: E402,F403
from .problems import *  # noqa: E402,F403
from .stepper import *  # noqa: E402,F403
from .harness import *  # noqa: E402,F403
