"""Simulator and analysis library for a covert-routing overlay: anonymous
capability discovery by random walks, distance-vector routing over
steganographic links, and closed-form sender-anonymity entropy."""

__version__ = "0.1.0"
