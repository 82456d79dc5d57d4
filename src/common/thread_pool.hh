/**
 * @file
 * Minimal work-stealing thread pool for embarrassingly parallel batch
 * jobs (the suite runners). Each worker owns a deque: it pops work from
 * the front of its own deque and, when empty, steals from the back of a
 * sibling's. Batches are distributed round-robin so a longest-first
 * submission order spreads the heavy tasks across workers; stealing
 * rebalances whatever the estimate got wrong.
 *
 * Each worker starts on its own CPU of the process's allowed set and is
 * then free to migrate. Some schedulers neither spread newly created
 * threads nor rebalance them soon: on a 4-vCPU VM, four fresh workers
 * shared one CPU for whole 300 ms batches, and 4-job suites ran slower
 * than serial ones.
 *
 * Determinism contract: the pool guarantees nothing about execution
 * order, so tasks must be independent (no shared mutable state) and
 * write to pre-assigned output slots. All suite-level determinism in
 * catchsim rests on that discipline, not on scheduling.
 */

#ifndef CATCHSIM_COMMON_THREAD_POOL_HH_
#define CATCHSIM_COMMON_THREAD_POOL_HH_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace catchsim
{

class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /** @param workers thread count; 0 or 1 runs every batch inline. */
    explicit ThreadPool(unsigned workers)
        : queues_(workers > 1 ? workers : 0)
    {
        for (size_t w = 0; w < queues_.size(); ++w)
            threads_.emplace_back([this, w] { workerLoop(w); });
    }

    ~ThreadPool()
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        wake_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned workers() const
    {
        return queues_.empty() ? 1u
                               : static_cast<unsigned>(queues_.size());
    }

    /**
     * Runs every task and blocks until all have finished. Tasks are
     * dealt round-robin in submission order, so submitting longest
     * first approximates LPT scheduling. Serial pools (<= 1 worker)
     * run the tasks inline, in order, on the calling thread.
     */
    void
    runAll(std::vector<Task> tasks)
    {
        if (queues_.empty()) {
            for (auto &t : tasks)
                t();
            return;
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            pending_ += tasks.size();
            for (size_t i = 0; i < tasks.size(); ++i)
                queues_[i % queues_.size()].push_back(std::move(tasks[i]));
        }
        wake_.notify_all();
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [this] { return pending_ == 0; });
    }

  private:
    /**
     * Moves the calling worker onto the (@p self mod n)-th CPU it may
     * run on, then restores its full affinity mask. The thread stays
     * where it landed unless the scheduler later chooses to move it;
     * nothing stays pinned. A no-op off Linux or on one CPU.
     */
    static void
    placeWorker(size_t self)
    {
#if defined(__linux__)
        cpu_set_t allowed;
        if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
            return;
        const int n = CPU_COUNT(&allowed);
        if (n < 2)
            return;
        size_t skip = self % static_cast<size_t>(n);
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (!CPU_ISSET(cpu, &allowed) || skip-- != 0)
                continue;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpu, &one);
            sched_setaffinity(0, sizeof(one), &one);
            break;
        }
        sched_setaffinity(0, sizeof(allowed), &allowed);
#else
        (void)self;
#endif
    }

    void
    workerLoop(size_t self)
    {
        placeWorker(self);
        for (;;) {
            Task task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                wake_.wait(lock, [this, self] {
                    return shutdown_ || findWork(self);
                });
                if (shutdown_ && !findWork(self))
                    return;
                task = takeWork(self);
            }
            task();
            std::unique_lock<std::mutex> lock(mutex_);
            if (--pending_ == 0)
                done_.notify_all();
        }
    }

    /** Under mutex_: true when own or stealable work exists. */
    bool
    findWork(size_t self) const
    {
        if (!queues_[self].empty())
            return true;
        for (const auto &q : queues_)
            if (!q.empty())
                return true;
        return false;
    }

    /** Under mutex_: own front first, else steal a sibling's back. */
    Task
    takeWork(size_t self)
    {
        if (!queues_[self].empty()) {
            Task t = std::move(queues_[self].front());
            queues_[self].pop_front();
            return t;
        }
        for (size_t i = 1; i < queues_.size(); ++i) {
            auto &q = queues_[(self + i) % queues_.size()];
            if (!q.empty()) {
                Task t = std::move(q.back());
                q.pop_back();
                return t;
            }
        }
        return {};
    }

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::deque<Task>> queues_;
    std::vector<std::thread> threads_;
    size_t pending_ = 0;
    bool shutdown_ = false;
};

} // namespace catchsim

#endif // CATCHSIM_COMMON_THREAD_POOL_HH_
