#include "widget.hh"
namespace fx {
int widget()
{
    // Stale inline waiver: nothing on this line violates determinism.
    int x = 41 + 1; // catch-analyze: allow(determinism)
    return x;
}
}
