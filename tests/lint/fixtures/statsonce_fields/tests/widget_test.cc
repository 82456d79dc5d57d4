#include "widget.hh"
int main() { return 0; }
