/**
 * @file
 * Fixed-size worker pool over a FIFO work queue.
 *
 * Deliberately minimal: tasks are opaque closures, submission order
 * is preserved by the queue, and wait() gives the engine a barrier.
 * No work stealing — sweep jobs are coarse (whole simulations), so a
 * single locked queue is nowhere near contention.
 */

#ifndef ASAP_SIM_POOL_HH
#define ASAP_SIM_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace asap
{

/**
 * Where the engine puts simulation tasks. ThreadPool is the default
 * implementation; a caller can substitute its own executor (the
 * repository benchmark times every job this way) without the engine
 * knowing.
 */
class TaskExecutor
{
  public:
    virtual ~TaskExecutor() = default;

    /** Enqueue @p task; the executor runs it on some worker. */
    virtual void submit(std::function<void()> task) = 0;

    /** Worker parallelism (used for progress/ETA estimates). */
    virtual unsigned width() const = 0;
};

/** Worker threads draining a shared FIFO of closures. */
class ThreadPool : public TaskExecutor
{
  public:
    /**
     * @param threads worker count; 0 picks defaultThreads()
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p task; it runs on some worker in FIFO order. */
    void submit(std::function<void()> task) override;

    /** Block until every submitted task has finished. */
    void wait();

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /** TaskExecutor: parallelism equals the worker count. */
    unsigned width() const override { return size(); }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    std::mutex mu;
    std::condition_variable hasWork;  //!< workers wait here
    std::condition_variable allDone;  //!< wait() waits here
    std::deque<std::function<void()>> queue;
    std::size_t inFlight = 0; //!< queued + currently executing tasks
    bool stopping = false;
    std::vector<std::thread> workers;
};

} // namespace asap

#endif // ASAP_SIM_POOL_HH
