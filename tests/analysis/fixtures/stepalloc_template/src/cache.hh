#pragma once

class Cache {
  public:
    void lookup(int addr);

  private:
    // One field list for save and load: IO is a sink or a source.
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    unsigned long tag_ = 0;
};
