"""Legacy setup shim; all metadata lives in ``pyproject.toml``.

It exists only so ``python setup.py develop`` works where the ``wheel``
package (needed by PEP 517 editable installs) is unavailable.
"""

from setuptools import setup

setup()
