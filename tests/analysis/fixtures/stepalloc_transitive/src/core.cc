#include "core.hh"

OooCore::OooCore()
{
    rob_.resize(224); // constructors may size hot structures
}

void
OooCore::bind(int n)
{
    rob_.reserve(n);       // setup-time functions may allocate too
    helper_.sizeTables(n); // setup path: its reserve stays legal
}

void
OooCore::step()
{
    // The allocation is two edges away, in another TU: only the
    // call graph sees it.
    helper_.record(42);
}
