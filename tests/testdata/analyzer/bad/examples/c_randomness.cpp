// Fixture: c-randomness must fire exactly once (the srand() call below),
// in a .cpp source like the example programs'.
#include <cstdlib>

int main() {
  srand(7);
  return 0;
}
