/**
 * @file
 * A move-only callable with compile-time-checked inline capture
 * storage — the scheduling substrate's replacement for
 * std::function.
 *
 * Every event the simulator schedules used to be type-erased into a
 * std::function<void()>, which heap-allocates for any capture larger
 * than its tiny SBO buffer (16 bytes on libstdc++) — one allocation
 * per scheduled event on the hottest path in the program. InlineFn
 * stores the callable inline, always:
 *
 *  - callables up to @ref capacity bytes are placement-new'd into the
 *    entry itself; there is no heap fallback, so the dispatch path
 *    performs zero allocations by construction;
 *  - callables that do NOT fit fail to compile with a static_assert
 *    pointing at sim::SlotPool and sim::boxed(). The size budget is a
 *    checked contract, not a heuristic: growing a hot lambda past the
 *    line is an explicit, reviewable decision at the call site.
 *
 * State that must outlive one event, and in particular another
 * InlineFn (a continuation can never nest inside a buffer of its own
 * size), lives in a sim::SlotPool owned by the component that carries
 * the request; each hop captures {this, slot}. Every per-op path does
 * this, so the dominant schedule shapes ([this] continuations, scalar
 * captures, slot indices) are allocation-free. sim::boxed() remains
 * for cold paths (drains, ACUD, kernel completion, trace-on spans): it
 * moves the callable behind a unique_ptr, one allocation per use.
 */

#ifndef GRIFFIN_SIM_INLINE_FN_HH
#define GRIFFIN_SIM_INLINE_FN_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace griffin::sim {

template <typename Signature>
class InlineFn;

/**
 * Move-only type-erased callable with inline storage.
 *
 * Semantics mirror std::function where they overlap: default/nullptr
 * construction yields an empty callable, contextual bool tests for a
 * target, assignment replaces the target. Unlike std::function it is
 * move-only (captures may own unique_ptrs) and never allocates.
 */
template <typename R, typename... Args>
class InlineFn<R(Args...)>
{
  public:
    /** Inline capture budget, in bytes. */
    static constexpr std::size_t capacity = 56;
    /** Maximum supported capture alignment. */
    static constexpr std::size_t alignment = alignof(void *);

    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn> &&
                  !std::is_same_v<D, std::nullptr_t> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFn(F &&fn)
    {
        static_assert(sizeof(D) <= capacity,
                      "capture too large for InlineFn's inline storage: "
                      "keep the state in a sim::SlotPool and capture the "
                      "slot, or on a cold path wrap it in sim::boxed()");
        static_assert(alignof(D) <= alignment,
                      "capture over-aligned for InlineFn storage");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "InlineFn requires nothrow-movable captures");
        ::new (static_cast<void *>(_buf)) D(std::forward<F>(fn));
        _ops = opsFor<D>();
    }

    InlineFn(InlineFn &&other) noexcept { moveFrom(other); }

    InlineFn &
    operator=(InlineFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFn &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFn(const InlineFn &) = delete;
    InlineFn &operator=(const InlineFn &) = delete;

    ~InlineFn() { reset(); }

    /** True when a target is set. */
    explicit operator bool() const noexcept { return _ops != nullptr; }

    /** Invoke the target (undefined when empty, as for std::function). */
    R
    operator()(Args... args) const
    {
        // Like std::function, invoking through a const wrapper calls a
        // non-const target; the buffer is logically mutable.
        return _ops->invoke(const_cast<unsigned char *>(_buf),
                            std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static const Ops *
    opsFor()
    {
        static constexpr Ops ops{
            [](void *p, Args... args) -> R {
                return (*static_cast<D *>(p))(
                    std::forward<Args>(args)...);
            },
            [](void *dst, void *src) noexcept {
                ::new (dst) D(std::move(*static_cast<D *>(src)));
                static_cast<D *>(src)->~D();
            },
            [](void *p) noexcept { static_cast<D *>(p)->~D(); }};
        return &ops;
    }

    void
    reset() noexcept
    {
        if (_ops) {
            _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    void
    moveFrom(InlineFn &other) noexcept
    {
        if (other._ops) {
            other._ops->relocate(_buf, other._buf);
            _ops = other._ops;
            other._ops = nullptr;
        }
    }

    alignas(alignment) unsigned char _buf[capacity];
    const Ops *_ops = nullptr;
};

/**
 * Move @p fn behind a unique_ptr and return an 8-byte callable that
 * forwards to it: one heap allocation per call. Use it only on cold
 * paths whose capture cannot fit an InlineFn inline, typically a
 * wrapper around a continuation (itself an InlineFn) that fires once
 * per drain, migration batch or kernel. Per-request state on a hot
 * path belongs in a sim::SlotPool instead (see slot_pool.hh).
 */
template <typename F>
auto
boxed(F &&fn)
{
    return [p = std::make_unique<std::decay_t<F>>(std::forward<F>(fn))](
               auto &&...args) -> decltype(auto) {
        return (*p)(std::forward<decltype(args)>(args)...);
    };
}

} // namespace griffin::sim

#endif // GRIFFIN_SIM_INLINE_FN_HH
