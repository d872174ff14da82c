// gl-analyze-expect: clean
//
// Tokens inside comments are not code.

// A comment that merely mentions rand() and mt19937 and for (x : m).
int f() { return 0; }
