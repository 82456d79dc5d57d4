#include "cache.hh"
#include "state_io.hh"

template <typename IO, typename Self>
void
Cache::warmFields(IO &io, Self &s)
{
    io.u64(s.tag_); // IO is a template parameter: any sink's u64
}

void
Cache::lookup(int addr)
{
    StateSink probe; // a state probe on the per-lookup path
    warmFields(probe, *this);
    tag_ = addr;
}
