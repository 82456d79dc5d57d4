#include "core.hh"

void
OooCore::step()
{
    // Stale: nothing on the next line allocates.
    // catch-analyze: allow(step-alloc)
    tick_ += 1;
}
