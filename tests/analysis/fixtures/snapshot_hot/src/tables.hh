#pragma once

class Tables {
  public:
    void saveWarmState(int &sink) const;
    void restorePages(const int &pages);
    void probe(int addr);

  private:
    template <typename IO, typename Self>
    static void warmFields(IO &io, Self &s);

    int state_ = 0;
};
