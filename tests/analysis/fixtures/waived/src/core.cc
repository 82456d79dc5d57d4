#include "core.hh"

void
OooCore::step()
{
    // Inline waiver, next-line form (src/widget.cc uses the trailing
    // form).
    // catch-analyze: allow(step-alloc)
    buf_.push_back(1);
    refill();
}

void
OooCore::refill()
{
    // Cut by the boundary waiver on OooCore::refill.
    chunk_.push_back(2);
}
