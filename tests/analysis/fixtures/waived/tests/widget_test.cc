#include "core.hh"
#include "host.hh"
#include "widget.hh"
int main() { return 0; }
