#include "net/event_loop.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace pufatt::net {

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t from_epoll(std::uint32_t ev) {
  std::uint32_t out = 0;
  if (ev & (EPOLLIN | EPOLLHUP)) out |= EventLoop::kReadable;
  if (ev & EPOLLOUT) out |= EventLoop::kWritable;
  if (ev & (EPOLLERR | EPOLLHUP)) out |= EventLoop::kError;
  return out;
}

std::uint32_t to_epoll(std::uint32_t interest) {
  std::uint32_t ev = 0;
  if (interest & EventLoop::kReadable) ev |= EPOLLIN;
  if (interest & EventLoop::kWritable) ev |= EPOLLOUT;
  return ev;
}

}  // namespace

EventLoop::EventLoop() {
  const int efd = ::epoll_create1(0);
  if (efd < 0) {
    throw NetError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  epoll_fd_.reset(efd);

  int pipe_fds[2];
  if (::pipe(pipe_fds) < 0) {
    throw NetError(std::string("pipe: ") + std::strerror(errno));
  }
  wake_read_.reset(pipe_fds[0]);
  wake_write_.reset(pipe_fds[1]);
  set_nonblocking(wake_read_.get());
  set_nonblocking(wake_write_.get());
  add(wake_read_.get(), kReadable, [this](std::uint32_t) {
    drain_wake_pipe();
  });
}

EventLoop::~EventLoop() = default;

void EventLoop::add(int fd, std::uint32_t interest, IoCallback callback) {
  auto entry = std::make_shared<Entry>();
  entry->callback = std::move(callback);
  entries_[fd] = entry;
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
    entries_.erase(fd);
    throw NetError(std::string("epoll_ctl(ADD): ") + std::strerror(errno));
  }
}

void EventLoop::modify(int fd, std::uint32_t interest) {
  if (entries_.count(fd) == 0) return;
  epoll_event ev{};
  ev.events = to_epoll(interest);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &ev) < 0) {
    throw NetError(std::string("epoll_ctl(MOD): ") + std::strerror(errno));
  }
}

void EventLoop::remove(int fd) {
  const auto it = entries_.find(fd);
  if (it == entries_.end()) return;
  it->second->dead = true;  // a dispatch batch may still hold the entry
  entries_.erase(it);
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventLoop::stop() {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    stop_requested_ = true;
  }
  wake();
}

void EventLoop::add_timer(double period_ms, std::function<void()> on_tick) {
  Timer timer;
  timer.period_ms = period_ms;
  timer.on_tick = std::move(on_tick);
  timer.next_ns = steady_ns() + static_cast<std::uint64_t>(period_ms * 1e6);
  timers_.push_back(std::move(timer));
}

void EventLoop::wake() {
  const char byte = 1;
  // EAGAIN means the pipe already holds a wakeup; either way the loop runs.
  [[maybe_unused]] const auto n = ::write(wake_write_.get(), &byte, 1);
}

void EventLoop::drain_wake_pipe() {
  char buf[256];
  while (::read(wake_read_.get(), buf, sizeof(buf)) > 0) {
  }
}

void EventLoop::run_posted() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    batch.swap(posted_);
  }
  for (auto& fn : batch) fn();
}

int EventLoop::timeout_ms_until_tick() const {
  if (timers_.empty()) return -1;
  std::uint64_t soonest = timers_.front().next_ns;
  for (const Timer& timer : timers_) soonest = std::min(soonest, timer.next_ns);
  const std::uint64_t now = steady_ns();
  if (now >= soonest) return 0;
  const std::uint64_t delta_ms = (soonest - now) / 1'000'000u;
  return static_cast<int>(delta_ms) + 1;
}

void EventLoop::fire_due_timers() {
  // Index loop on purpose: a tick callback may add_timer(), growing the
  // vector (the new timer first fires on a later iteration).
  for (std::size_t i = 0; i < timers_.size(); ++i) {
    const std::uint64_t now = steady_ns();
    if (now < timers_[i].next_ns) continue;
    timers_[i].next_ns =
        now + static_cast<std::uint64_t>(timers_[i].period_ms * 1e6);
    timers_[i].on_tick();
  }
}

void EventLoop::dispatch(
    std::vector<std::pair<std::shared_ptr<Entry>, std::uint32_t>>& ready,
    int timeout_ms) {
  ready.clear();
  epoll_event events[256];
  const int n = ::epoll_wait(epoll_fd_.get(), events, 256, timeout_ms);
  if (n < 0 && errno != EINTR) {
    throw NetError(std::string("epoll_wait: ") + std::strerror(errno));
  }
  for (int i = 0; i < n; ++i) {
    const auto it = entries_.find(events[i].data.fd);
    if (it == entries_.end()) continue;
    ready.emplace_back(it->second, from_epoll(events[i].events));
  }
  for (auto& [entry, bits] : ready) {
    if (entry->dead || bits == 0) continue;
    entry->callback(bits);
  }
  ready.clear();  // drop entry refs before callbacks' effects pile up
  run_posted();
  fire_due_timers();
}

void EventLoop::poll_once(int timeout_ms) {
  std::vector<std::pair<std::shared_ptr<Entry>, std::uint32_t>> ready;
  dispatch(ready, timeout_ms);
}

void EventLoop::run() {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    stop_requested_ = false;
  }
  std::vector<std::pair<std::shared_ptr<Entry>, std::uint32_t>> ready;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(post_mutex_);
      if (stop_requested_) break;
    }
    dispatch(ready, timeout_ms_until_tick());
  }
  run_posted();  // closures posted between the stop flag and the wake
}

}  // namespace pufatt::net
