// Fixture: one code line and one comment line past 80 characters.
#include <vector>

std::vector<const char*> names() {
  return {"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta!"};
}

// The trial loop re-validates nothing: a built topology is valid by construction.
