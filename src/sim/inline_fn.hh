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
 * size), lives in a sim::SlotPool slot; each hop captures
 * {this, slot}. Every per-op path does
 * this, so the dominant schedule shapes ([this] continuations, scalar
 * captures, slot indices) are allocation-free. sim::boxed() remains
 * for cold paths (drains, ACUD, kernel completion, trace-on spans): it
 * moves the callable behind a unique_ptr, one allocation per use.
 *
 * A capture that is trivially copyable and trivially destructible (a
 * {this, slot} hop, a [this, wf, seq] completion, any lambda holding
 * only pointers and scalars) is relocated with a fixed-size memcpy and
 * never destroyed through the ops table: an event moves through the
 * queue's tiers without an indirect call. Other captures keep their
 * move constructor and destructor, called exactly once each.
 */

#ifndef GRIFFIN_SIM_INLINE_FN_HH
#define GRIFFIN_SIM_INLINE_FN_HH

#include <cstddef>
#include <cstring>
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

    /**
     * True when a capture of type @p F takes the trivial path: moved by
     * memcpy of the inline buffer, with no destructor call.
     */
    template <typename F>
    static constexpr bool trivialCapture =
        std::is_trivially_copyable_v<std::decay_t<F>> &&
        std::is_trivially_destructible_v<std::decay_t<F>>;

    InlineFn() noexcept = default;
    InlineFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFn> &&
                  !std::is_same_v<D, std::nullptr_t> &&
                  std::is_invocable_r_v<R, D &, Args...>>>
    InlineFn(F &&fn)
    {
        construct(std::forward<F>(fn));
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

    /**
     * Replace the target with @p fn, built directly in this object's
     * buffer: no temporary InlineFn, no relocation. An InlineFn
     * argument (which must be an rvalue) is moved in instead.
     */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using D = std::decay_t<F>;
        reset();
        if constexpr (std::is_same_v<D, InlineFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "InlineFn is move-only: pass it with std::move");
            moveFrom(fn);
        } else {
            construct(std::forward<F>(fn));
        }
    }

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
    /** Build @p fn in the (empty) buffer. */
    template <typename F>
    void
    construct(F &&fn)
    {
        using D = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<R, D &, Args...>,
                      "InlineFn target has the wrong signature");
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

    /**
     * Type-erased operations of one capture type. relocate and destroy
     * are null for a trivial capture (see trivialCapture): the buffer
     * is then memcpy'd and needs no destruction.
     */
    struct Ops
    {
        R (*invoke)(void *, Args...);
        /** Move-construct dst from src, then destroy src. */
        void (*relocate)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static R
    invokeAs(void *p, Args... args)
    {
        return (*static_cast<D *>(p))(std::forward<Args>(args)...);
    }

    template <typename D>
    static const Ops *
    opsFor()
    {
        if constexpr (trivialCapture<D>) {
            static constexpr Ops ops{&invokeAs<D>, nullptr, nullptr};
            return &ops;
        } else {
            static constexpr Ops ops{
                &invokeAs<D>,
                [](void *dst, void *src) noexcept {
                    ::new (dst) D(std::move(*static_cast<D *>(src)));
                    static_cast<D *>(src)->~D();
                },
                [](void *p) noexcept { static_cast<D *>(p)->~D(); }};
            return &ops;
        }
    }

    void
    reset() noexcept
    {
        if (_ops) {
            if (_ops->destroy)
                _ops->destroy(_buf);
            _ops = nullptr;
        }
    }

    void
    moveFrom(InlineFn &other) noexcept
    {
        if (other._ops) {
            if (other._ops->relocate)
                other._ops->relocate(_buf, other._buf);
            else
                std::memcpy(_buf, other._buf, capacity);
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
