#include "core.hh"
int main() { return 0; }
