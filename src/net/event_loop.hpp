// Single-threaded readiness loop over epoll(7).
//
// One thread owns the loop: it blocks in the kernel until a watched fd is
// ready, dispatches callbacks, runs posted closures, and fires periodic
// timers.  Everything the server and load generator do happens on this
// thread — connection state needs no locks — while other threads (pool
// workers delivering verdicts, a controller calling stop()) reach the loop
// exclusively through the thread-safe post()/stop() pair, which wake the
// loop via a self-pipe.
//
// epoll is level-triggered here: combined with read-until-EAGAIN that is
// the simple correctness point, and dispatch is O(ready fds), which is
// what lets one thread hold 10k connections.  The network front end is
// Linux-only.
//
// Threading contract: add()/modify()/remove() and add_timer() may be
// called only from the loop thread or before run() starts.  post() and
// stop() are safe from any thread at any time, including after run()
// returned (the closure is then simply never executed).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/socket.hpp"

namespace pufatt::net {

class EventLoop {
 public:
  /// Readiness bits for interest sets and callback arguments.
  static constexpr std::uint32_t kReadable = 1u;
  static constexpr std::uint32_t kWritable = 2u;
  /// Delivered (never requested): error/hangup on the fd.
  static constexpr std::uint32_t kError = 4u;

  using IoCallback = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Watches `fd`.  The callback may add/modify/remove any fd, including
  /// its own (a removed fd's already-collected events are discarded).
  void add(int fd, std::uint32_t interest, IoCallback callback);
  void modify(int fd, std::uint32_t interest);
  void remove(int fd);

  /// Runs `fn` on the loop thread during the next iteration.  Thread-safe;
  /// wakes the loop if it is blocked in the kernel.
  void post(std::function<void()> fn);

  /// Registers a periodic callback on the loop thread, first firing one
  /// period from now.  Timers are independent: the loop's wait timeout is
  /// the minimum over all of them, and each fires on its own cadence.
  void add_timer(double period_ms, std::function<void()> on_tick);

  /// Dispatches until stop().  Must be called at most once at a time.
  void run();

  /// One wait-dispatch iteration (posted closures and timers included)
  /// without entering run().  Lets a caller doing long synchronous setup —
  /// the load generator's 10k-connection open storm — keep servicing
  /// already-watched fds so peers never see it as idle.  Loop thread only.
  void poll_once(int timeout_ms = 0);

  /// Thread-safe; run() returns after finishing the current iteration.
  void stop();

  std::size_t watched() const { return entries_.size(); }

 private:
  struct Entry {
    IoCallback callback;
    bool dead = false;  ///< removed while a dispatch batch referenced it
  };

  void wake();
  void drain_wake_pipe();
  void run_posted();
  int timeout_ms_until_tick() const;
  void fire_due_timers();
  /// One iteration: wait up to `timeout_ms`, run the ready callbacks, then
  /// the posted closures, then the due timers.  `ready` is the caller's
  /// scratch, so run() reuses one across iterations.
  void dispatch(
      std::vector<std::pair<std::shared_ptr<Entry>, std::uint32_t>>& ready,
      int timeout_ms);

  std::unordered_map<int, std::shared_ptr<Entry>> entries_;
  Fd epoll_fd_;
  Fd wake_read_;
  Fd wake_write_;

  std::mutex post_mutex_;
  std::vector<std::function<void()>> posted_;
  bool stop_requested_ = false;  ///< guarded by post_mutex_

  struct Timer {
    double period_ms = 0.0;
    std::function<void()> on_tick;
    std::uint64_t next_ns = 0;
  };
  std::vector<Timer> timers_;
};

}  // namespace pufatt::net
