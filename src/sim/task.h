// Lazy coroutine task types for the discrete-event simulation.
//
// A Task<T> is a coroutine that does not start until awaited. Awaiting it
// transfers control into the child (symmetric transfer) and resumes the
// parent when the child completes. The simulation is strictly
// single-threaded: all concurrency is virtual, interleaved by the event
// queue, so none of this needs atomics.
//
// Stack depth. Where the compiler does not turn symmetric transfer into a
// tail call (GCC at -O0, so the Debug and sanitizer builds), every
// transfer nests a native frame until some coroutine really suspends; a
// loop whose awaits keep completing synchronously would recurse until the
// stack overflows. Every transfer therefore goes through the Trampoline:
// past kMaxDepth transfers since the scheduler last resumed a coroutine,
// it parks the target and unwinds to Simulation::Step, which resumes the
// parked coroutine before any other event. Nothing else can run between
// the park and that resumption, so event order is unchanged.
//
// GCC 12 PITFALL: never pass a *prvalue temporary* of a non-trivially-
// copyable type (std::string, structs containing them) as a BY-VALUE
// argument to a coroutine, e.g. `co_await F(MyStruct{...})`. GCC 12's
// guaranteed-elision path bit-copies the parameter into the coroutine
// frame, leaving SSO string pointers aimed at the caller's (soon freed)
// frame — a use-after-free that only bites once the data is moved onward.
// Always name the object and `std::move` it: `MyStruct s{...};
// co_await F(std::move(s));`. Reference parameters (`const T&`) bound to
// temporaries are fine as long as the caller co_awaits the task within the
// same full expression, which is this library's universal calling pattern
// — except a temporary made by a DEFAULT argument (`const T& x = {}`),
// which GCC 12 frees twice: give coroutines no defaulted class-type
// parameters. GCC 12 also miscompiles an if-condition that passes a
// co_await result and a temporary std::string to one call, e.g.
// `if (!CheckOk(co_await ks.Sync(), "sync"))` traps at run time (SIGILL):
// await into a named local first.
#pragma once

#include <cassert>
#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

namespace kvcsd::sim {

template <typename T>
class Task;
class Ledger;

namespace detail {

class Trampoline {
 public:
  static constexpr int kMaxDepth = 128;

  // The handle a transfer should resume: `next` itself, or (past the
  // depth limit) the no-op coroutine, with `next` parked for Step.
  static std::coroutine_handle<> Transfer(std::coroutine_handle<> next) {
    if (++depth_ < kMaxDepth) return next;
    assert(!parked_);
    parked_ = next;
    return std::noop_coroutine();
  }

  // Called by the scheduler before it resumes a coroutine: starts a new
  // count and hands over the parked handle, if any (null otherwise).
  static std::coroutine_handle<> Reset() {
    depth_ = 0;
    return std::exchange(parked_, nullptr);
  }

 private:
  static inline thread_local int depth_ = 0;
  static inline thread_local std::coroutine_handle<> parked_ = nullptr;
};

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  // The latency ledger work done here books into (sim/ledger.h): copied
  // from the awaiting coroutine when the task is awaited, null for a
  // spawned process until it binds one.
  Ledger* ledger = nullptr;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& promise = h.promise();
      if (promise.continuation) {
        return Trampoline::Transfer(promise.continuation);
      }
      return std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;

  Task<T> get_return_object();
  void return_value(T v) { value.emplace(std::move(v)); }

  T TakeResult() {
    if (exception) std::rethrow_exception(exception);
    assert(value.has_value());
    return std::move(*value);
  }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}

  void TakeResult() const {
    if (exception) std::rethrow_exception(exception);
  }
};

// Starts the task and resumes the awaiter when it completes; the task
// inherits the awaiter's ledger.
template <typename Promise>
struct TaskAwaiter {
  std::coroutine_handle<Promise> handle;
  bool await_ready() const noexcept { return false; }
  template <typename P>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<P> awaiting) noexcept {
    if constexpr (std::is_base_of_v<PromiseBase, P>) {
      handle.promise().ledger = awaiting.promise().ledger;
    }
    handle.promise().continuation = awaiting;
    return Trampoline::Transfer(handle);  // into the child
  }
  auto await_resume() { return handle.promise().TakeResult(); }
};

}  // namespace detail

// Move-only owning handle to a lazy coroutine.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle handle) : handle_(handle) {}

  Task(Task&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }
  bool done() const { return handle_ && handle_.done(); }

  // Awaiting a Task starts it and resumes the awaiter on completion.
  auto operator co_await() && noexcept {
    return detail::TaskAwaiter<promise_type>{handle_};
  }
  auto operator co_await() & noexcept = delete;  // must own the task

  // Release ownership (used by the detached-spawn machinery).
  Handle release() { return std::exchange(handle_, nullptr); }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  Handle handle_ = nullptr;
};

namespace detail {

template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() {
  return Task<void>(
      std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

// `co_await CurrentLedger()` yields the awaiting task's ledger (null when
// none is bound), and `co_await BindLedger(l)` makes `l` the ledger of the
// awaiting task and of every task it awaits from then on. Neither
// suspends.
struct CurrentLedger {
  Ledger* ledger = nullptr;
  bool await_ready() const noexcept { return false; }
  template <typename P>
  bool await_suspend(std::coroutine_handle<P> h) noexcept {
    ledger = h.promise().ledger;
    return false;
  }
  Ledger* await_resume() const noexcept { return ledger; }
};
struct BindLedger : CurrentLedger {
  explicit BindLedger(Ledger* l) { ledger = l; }
  template <typename P>
  bool await_suspend(std::coroutine_handle<P> h) noexcept {
    h.promise().ledger = ledger;
    return false;
  }
};

}  // namespace kvcsd::sim
