"""lgmf: exact matrix factorisations, residues and Landau-Ginzburg TFT invariants."""

__version__ = "0.1.0"
__all__ = ["__version__"]
