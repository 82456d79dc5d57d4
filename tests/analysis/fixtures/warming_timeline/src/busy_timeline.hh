#pragma once

class BusyTimeline {
  public:
    unsigned long
    schedule(unsigned long desired, unsigned slots)
    {
        if (desired > maxSeen_)
            maxSeen_ = desired;
        maxSeen_ += slots;
        return desired;
    }

  private:
    unsigned long maxSeen_ = 0;
};
