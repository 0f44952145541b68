// HandlerSlot + DestructionSentinel — the shared ownership model for every
// handler/callback site in the session stack (PR 3).
//
// Ownership rules:
//  1. A handler must never own (hold a shared_ptr to) the object that stores
//     it, nor anything that transitively owns that object — that is a
//     reference cycle no destructor can break. Capture a weak_ptr, a raw
//     pointer to a strictly longer-lived owner, or keep the strong
//     reference in an explicit registry *outside* the handler.
//  2. Every owner severs its handlers in an idempotent close()/shutdown()
//     (and from its destructor), so captured resources are released the
//     moment the owner retires, not when a cycle happens to unwind.
//  3. Dispatch is reentrancy-safe: the handler is copied (or, for one-shot
//     slots, moved) out of the slot before it is invoked, so a callback may
//     legally replace itself, clear the slot, sever it, or even destroy the
//     owner. After invoking, the dispatcher must not touch the owner again.
//  4. Asynchronous callbacks that capture a raw owner pointer (scheduled
//     events, connect completions) guard with a DestructionSentinel token:
//     the callback checks token.expired() before touching the owner.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

namespace peerhood {

// A handler holder with pin-before-call dispatch and a severed terminal
// state. The handler is stored behind a shared_ptr, so dispatch pins it
// with a refcount bump instead of copying the std::function — reentrancy
// safety without a per-call heap allocation on the frame hot path, however
// large the handler's captures. Not thread-safe (the simulator is
// single-threaded by design).
template <typename Signature>
class HandlerSlot;

template <typename... Args>
class HandlerSlot<void(Args...)> {
 public:
  using Fn = std::function<void(Args...)>;
  // What sever_take() hands back: keeps the captures alive until the caller
  // (and any dispatch still pinning the handler) lets go.
  using Held = std::shared_ptr<const Fn>;

  HandlerSlot() = default;
  HandlerSlot(const HandlerSlot&) = delete;
  HandlerSlot& operator=(const HandlerSlot&) = delete;

  // Installs a handler. No-op after sever() — a retired owner silently
  // drops late installations instead of resurrecting dispatch.
  void set(Fn fn) {
    if (severed_) return;
    ++sets_;
    // Move the old handler out before storing the new one: destroying its
    // captures can reentrantly call set()/clear() on this same slot.
    Held doomed = std::move(fn_);
    fn_ = fn ? std::make_shared<const Fn>(std::move(fn)) : nullptr;
  }

  // Drops the current handler (releasing its captures); set() still works.
  void clear() {
    Held doomed = std::move(fn_);
    fn_ = nullptr;
  }

  // Terminal: drops the handler and rejects all future set() calls.
  void sever() {
    severed_ = true;
    clear();
  }

  // Severs and hands the handler to the caller, so its captures can be
  // released *after* the owner is done touching its own members (destroying
  // a handler may destroy the owner itself).
  [[nodiscard]] Held sever_take() {
    severed_ = true;
    Held out = std::move(fn_);
    fn_ = nullptr;
    return out;
  }

  [[nodiscard]] bool armed() const { return fn_ != nullptr; }
  explicit operator bool() const { return armed(); }
  // How many handlers set() has installed: whoever installed one can tell
  // whether the slot still holds it.
  [[nodiscard]] std::uint64_t sets() const { return sets_; }

  // Pin-before-call dispatch. The callback may replace/clear/sever this
  // slot or destroy the owner; no member is touched after the call.
  template <typename... CallArgs>
  void invoke(CallArgs&&... args) const {
    if (fn_ == nullptr) return;
    const Held local = fn_;
    (*local)(std::forward<CallArgs>(args)...);
  }

  // One-shot dispatch: the handler is consumed, so a reentrant or repeated
  // trigger fires it at most once.
  template <typename... CallArgs>
  void fire_once(CallArgs&&... args) {
    if (fn_ == nullptr) return;
    const Held local = std::move(fn_);
    fn_ = nullptr;
    (*local)(std::forward<CallArgs>(args)...);
  }

 private:
  Held fn_;
  std::uint64_t sets_{0};
  bool severed_{false};
};

// Lifetime tracker for owners that hand raw `this` captures to asynchronous
// callbacks (scheduled events, connect completions). The owner holds the
// sentinel as a member; callbacks hold a token and bail out once it expires.
class DestructionSentinel {
 public:
  using Token = std::weak_ptr<const bool>;

  DestructionSentinel() = default;
  DestructionSentinel(const DestructionSentinel&) = delete;
  DestructionSentinel& operator=(const DestructionSentinel&) = delete;

  [[nodiscard]] Token token() const { return alive_; }

 private:
  std::shared_ptr<const bool> alive_{std::make_shared<bool>(true)};
};

}  // namespace peerhood
