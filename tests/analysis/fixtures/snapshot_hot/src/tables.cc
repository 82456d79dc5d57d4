#include "tables.hh"

template <typename IO, typename Self>
void
Tables::warmFields(IO &io, Self &s)
{
    io = s.state_;
}

void
Tables::saveWarmState(int &sink) const
{
    sink = state_;
}

void
Tables::restorePages(const int &pages)
{
    state_ = pages;
}

void
Tables::probe(int addr)
{
    int io = addr;
    warmFields(io, *this); // a field list run per lookup
}
