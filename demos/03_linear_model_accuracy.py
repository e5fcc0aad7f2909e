"""How close is the linear branch-flow model to the exact power flow?

Two flavours of linearization constants:

* balanced: rotation entries are powers of 1|120deg and the loss terms are
  zero -- no power flow needed, but voltages are overestimated;
* from a base solution: constants evaluated at a converged exact solution --
  at that operating point the linear model is exact to machine precision.

Both answers are arrays in one order: the linear model's squared magnitudes
``v_sq`` line up index for index with the exact voltages ``exact.v``.
"""

from pathlib import Path

import numpy as np

import tapflow as tf

HERE = Path(__file__).resolve().parent
model = tf.parse_feeder((HERE.parent / "fixtures" / "ieee13.json").read_text())
ratios = tf.taps_to_ratios(model, tf.zero_taps(model))
exact = tf.solve_zbus(model, ratios)

# Balanced constants: the comparison behind the accuracy table.
v_sq, _ = tf.linear_powerflow(model, tf.constants_balanced(model), ratios)
rep = tf.lindiff(exact, v_sq)
print("balanced constants, zero taps:")
for p in "abc":
    print(f"  phase {p}: max | sqrt(v~) - |v| | = {rep.max_diff[p]:.4f}")
print(f"  min sqrt(v~) = {rep.min_lin:.4f}   min |v| = {rep.min_exact:.4f} "
      f"(the linear model overestimates)")

# Constants from the exact solution: exact at the linearization point.
const = tf.constants_from_solution(exact)
v_sq_exact, _ = tf.linear_powerflow(model, const, ratios)
worst = np.max(np.abs(v_sq_exact - np.abs(exact.v) ** 2))
print(f"\nbase-point constants, zero taps: worst squared-magnitude error {worst:.2e}")

# The same constants reused at a different ratio stay a good approximation.
shifted = tf.taps_to_ratios(model, [{"a": 4, "b": -8, "c": 7}])
truth = tf.solve_zbus(model, shifted)
v_sq_shift, _ = tf.linear_powerflow(model, const, shifted)
worst = np.max(np.abs(np.sqrt(v_sq_shift) - np.abs(truth.v)))
print(f"same constants at taps (4,-8,7): worst magnitude error {worst:.4f}")
