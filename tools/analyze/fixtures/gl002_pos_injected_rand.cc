// gl-analyze-expect: GL002
//
// rand() is a process-global RNG outside gl::Rng.

int Roll() {
  return rand() % 6;  // deliberately nondeterministic
}
