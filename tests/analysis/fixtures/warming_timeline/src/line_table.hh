#pragma once

class LineTable {
  public:
    void
    touch(unsigned long line)
    {
        last_ = line;
    }

  private:
    unsigned long last_ = 0;
};
