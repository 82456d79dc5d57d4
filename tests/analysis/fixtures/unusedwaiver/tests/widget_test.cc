#include "core.hh"
#include "widget.hh"
int main() { return fx::widget() == 42 ? 0 : 1; }
