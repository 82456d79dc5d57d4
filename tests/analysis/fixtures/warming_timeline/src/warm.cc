#include "warm.hh"

void
FastForward::warm(unsigned long pos)
{
    lines_.touch(pos);      // negative control: functional state only
    bank_.schedule(pos, 1); // DRAM bank timing on the warming path
}
