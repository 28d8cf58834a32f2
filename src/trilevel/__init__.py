"""Numerical operator algebra and dynamics for collective three-level atoms
coupled to one quantized field mode."""
