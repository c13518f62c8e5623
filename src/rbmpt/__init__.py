"""Stochastic maximum likelihood training of binary RBMs with single-chain,
fixed-ladder, and adaptive parallel tempering negative-phase samplers.

The names live in their modules (`from rbmpt import rbm, training`);
importing the package loads none of them."""

__version__ = "0.1.0"
