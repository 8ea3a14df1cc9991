// Fixture: lines of exactly 80 characters pass. The comment below is 80
// characters but more bytes (UTF-8), so the rule must count characters.
// A Werner pair stored for time t decays as F(t) = ¼ + (F₀ − ¼)·e^(−2κt) — κ≥0.
double decayed(double f0, double kappa, double t, double (*exp_fn)(double)) {
  return 0.25 + (f0 - 0.25) * exp_fn(-2.0 * kappa * t);
}
