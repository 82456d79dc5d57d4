#pragma once
#include "busy_timeline.hh"
#include "line_table.hh"

class FastForward {
  public:
    void warm(unsigned long pos);

  private:
    LineTable lines_;
    BusyTimeline bank_;
};
