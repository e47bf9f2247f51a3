"""Isolated in-process domains with private heaps on an emulated capability memory model.

Import from the submodules: ``capmem``, ``tlsf``, ``domains``, ``server``, ``bench``, ``cli``.
"""
