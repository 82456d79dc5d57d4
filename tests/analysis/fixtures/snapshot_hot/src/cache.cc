#include "cache.hh"

void
Cache::lookup(int addr)
{
    int sink = addr;
    tables_.saveWarmState(sink); // serialization on the per-cycle path
    tables_.restorePages(sink);  // page-image restore: same violation
    tables_.probe(addr);         // reaches a field list: same violation
}

void
Checkpoint::capture()
{
    int sink = 0;
    tables_.saveWarmState(sink); // run-boundary: legal
    tables_.restorePages(sink);  // run-boundary: legal
}
