#include "warm.hh"

void
FastForward::warm(int pos)
{
    // 'ways' is in the digest: quiet. 'intervalInstrs' is a schedule
    // knob the digest leaves out, read on the warming path: the
    // finding.
    state_ += pos % static_cast<int>(cfg_.ways);
    state_ += static_cast<int>(cfg_.intervalInstrs);
}
