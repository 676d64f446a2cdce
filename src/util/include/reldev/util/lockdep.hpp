// Runtime lock-order and blocking-under-lock checker ("lockdep", after the
// Linux kernel facility of the same name). The static half of the
// concurrency story (Clang thread-safety annotations, DESIGN.md §10)
// proves *which* mutex guards a field; it cannot prove that two mutexes
// are always taken in the same order, or that no blocking syscall runs
// while a lock is held. This module closes that gap dynamically:
//
//   * every reldev::Mutex belongs to a *class* — all mutexes constructed
//     at the same site (or given the same explicit name) share one class,
//     so one test run generalizes over every instance;
//   * each thread keeps a stack of held locks; acquiring B while holding A
//     records the directed edge A -> B in a global acquisition-order
//     graph. The first edge that closes a cycle (B ->* A already known) is
//     reported with both acquisition stacks: where this thread is taking
//     B with A held, and where some earlier thread took the conflicting
//     order. A potential ABBA deadlock is reported the first time the
//     *ordering* is seen — no actual deadlock, no unlucky interleaving
//     needed;
//   * the raw-I/O and socket paths (fd_io.hpp, tcp/socket.cpp, the TCP
//     client's gather) call check_blocking(); if any lock is held, that is
//     a report too — the library's contract is that no pread/pwrite/fsync/
//     send/recv runs under a Mutex (DESIGN.md §10 convention 4);
//   * a thread inside a ForbidBlocking scope — an event-loop thread, for
//     the whole of EventLoop::run — reports every check_blocking() call,
//     lock or no lock: the reactor answers some requests on the loop, and
//     those must never reach a blocking syscall (DESIGN.md §13);
//   * CondVar::wait cooperates: the waited mutex leaves the held stack for
//     the duration of the sleep (waiting with *other* locks held is its
//     own report kind) and is re-pushed, with ordering re-checked, on
//     wake.
//
// Compiled in only when RELDEV_LOCKDEP is defined (cmake option, default
// ON in Debug; the CI `lockdep` job runs the full tier-1 suite with it).
// Without the macro every hook collapses to an empty inline function, so
// release builds pay nothing.
//
// The default report handler prints to stderr and aborts (like a
// sanitizer with halt_on_error=1); tests install a capturing handler via
// set_handler() to assert on reports without dying.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace reldev::lockdep {

/// What a report is about.
enum class ViolationKind {
  kOrderInversion,     // lock acquisition closes a cycle in the order graph
  kBlockingUnderLock,  // blocking syscall invoked with >= 1 lock held
  kWaitWithLocksHeld,  // CondVar::wait with locks other than its own held
  kBlockingOnLoop,     // blocking syscall invoked inside a ForbidBlocking scope
};

const char* violation_kind_name(ViolationKind kind) noexcept;

struct Violation {
  ViolationKind kind;
  /// Full human-readable report: class names, lock sites, and (for order
  /// inversions) both acquisition stacks.
  std::string text;
};

/// True when the checker is compiled in (RELDEV_LOCKDEP).
[[nodiscard]] bool enabled() noexcept;

/// Total violations reported since start / the last reset().
[[nodiscard]] std::uint64_t violation_count() noexcept;

/// Install a report handler (nullptr restores the default print-and-abort
/// handler). The handler runs on the violating thread with no lockdep
/// bookkeeping locks held; it must not itself acquire reldev::Mutex-es
/// that could recurse into the checker (hooks are re-entrancy guarded, so
/// doing so is safe but unchecked).
void set_handler(std::function<void(const Violation&)> handler);

/// Test hook: forget every recorded edge, suppression, and the violation
/// counter, and clear the *calling thread's* held-lock stack. Only
/// meaningful while no other thread holds locks.
void reset();

/// Number of locks the calling thread currently holds (0 when compiled
/// out).
[[nodiscard]] int held_count() noexcept;

/// RAII: suppress blocking-under-lock reports on this thread for a region
/// that blocks by design. Use sparingly, with the justification in
/// `reason` (it is embedded in any report that would have fired, so a
/// stale excuse shows up in the suppressed text, not silently).
class AllowBlocking {
 public:
  explicit AllowBlocking(const char* reason) noexcept;
  ~AllowBlocking();
  AllowBlocking(const AllowBlocking&) = delete;
  AllowBlocking& operator=(const AllowBlocking&) = delete;

 private:
  const char* reason_;
};

/// RAII: mark the calling thread as one that must never block (an event
/// loop thread) for the scope's lifetime. Inside it, check_blocking()
/// reports kBlockingOnLoop whether or not a lock is held, and an
/// AllowBlocking scope does not excuse it. `owner` names the thread's role
/// in the report.
class ForbidBlocking {
 public:
  explicit ForbidBlocking(const char* owner) noexcept;
  ~ForbidBlocking();
  ForbidBlocking(const ForbidBlocking&) = delete;
  ForbidBlocking& operator=(const ForbidBlocking&) = delete;

 private:
  const char* previous_;
};

#if defined(RELDEV_LOCKDEP)

/// Intern a mutex class. All mutexes registered with the same key string
/// share the class; the key is the explicit name when one was given, else
/// "file:line" of the construction site. Returns a dense id (> 0).
[[nodiscard]] std::uint32_t register_class(const char* name, const char* file,
                                           unsigned line);

/// Called before a blocking lock() on `mutex`: checks the would-be edges
/// (held -> cls) against the order graph, records them, reports a cycle.
void pre_acquire(const void* mutex, std::uint32_t cls, const char* site_file,
                 unsigned site_line);

/// Called after lock()/successful try_lock(): pushes the held entry.
/// try_lock acquisitions skip pre_acquire (they cannot deadlock) but are
/// pushed so they count as held for later edges and blocking checks.
void post_acquire(const void* mutex, std::uint32_t cls, const char* site_file,
                  unsigned site_line);

/// Called before unlock(): pops the held entry (by mutex address).
void note_release(const void* mutex) noexcept;

/// CondVar support: remove `mutex` from the held stack for the duration
/// of the wait (reporting kWaitWithLocksHeld if others remain), returning
/// an opaque token; re-push and re-check ordering with wait_end().
struct WaitToken {
  bool found = false;
  std::uint32_t cls = 0;
  const char* site_file = nullptr;
  unsigned site_line = 0;
};
[[nodiscard]] WaitToken wait_begin(const void* mutex);
void wait_end(const void* mutex, const WaitToken& token);

/// Report if the calling thread holds any lock, or runs inside a
/// ForbidBlocking scope: `what` names the blocking operation ("fsync",
/// "recv", ...). One report per (top held class or scope owner, operation)
/// pair — storms collapse to their first instance.
void check_blocking(const char* what);

#else  // !RELDEV_LOCKDEP — every hook is a free inline no-op.

inline void check_blocking(const char*) {}

#endif  // RELDEV_LOCKDEP

}  // namespace reldev::lockdep
