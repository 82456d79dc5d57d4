#include "fast_forward.hh"

namespace fx
{

FastForward::FastForward()
{
    pending_.resize(64); // constructors may size hot structures
}

void
FastForward::bind(int n)
{
    pending_.reserve(n); // setup-time binding may allocate
}

unsigned long
FastForward::warm(unsigned long n)
{
    pending_.push_back(1); // warming hot loop: must be flagged
    return n;
}

} // namespace fx
