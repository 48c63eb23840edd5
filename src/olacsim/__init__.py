"""Simulator and optimization toolkit for learning-aided stochastic network control."""
