//! Stackful lanes: each lane runs on its own mapped stack, and switching
//! saves six callee-saved registers and swaps `rsp` on the calling thread.
//! All of the crate's unsafe code is here.
//!
//! Every stack that takes part — each lane's, and the caller's while it
//! waits in [`Origin::enter`] — has a context holding its saved `rsp` and
//! its state. Only a `Suspended` context is ever switched to, and switching
//! away marks the running one `Suspended`, so every switch lands on a stack
//! whose frames are live and waiting for exactly that switch. A lane runs
//! from [`Origin::enter`] or a sibling's [`switch_to`] until it switches on or
//! its entry closure returns, which switches back into the `enter` that its
//! [`Origin`] is waiting in.
//!
//! A lane that switches while unwinding would lend the thread's panic count
//! to the lane it switches to; no `Drop` in the workspace issues a verb, so
//! none does.
//!
//! Stacks are reused: a lane that finished, or never started, hands its
//! stack to a free list of its thread, and [`Lane::new`] maps a stack only
//! when that list is empty. The list keeps at most [`POOLED_STACKS`]; a
//! stack beyond that is unmapped. A lane dropped while suspended mid-body
//! (its group's runner unwound past it) may still be pointed at, so its
//! stack is never reused: it leaks.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "sched's stackful lanes are implemented for x86_64 Linux only: another target \
     needs its own register switch and trampoline in sched/src/stack.rs"
);

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::ptr;
use std::rc::Rc;

use dmem::pages::{Pages, PAGE};

/// Usable bytes per lane stack: std's default thread stack, so a lane body
/// gets as much stack as it had on a thread of its own. Only touched pages
/// become resident.
const STACK_BYTES: usize = 2 << 20;

/// One base page, made inaccessible below each stack.
const GUARD_BYTES: usize = PAGE;

/// Most stacks a thread keeps for reuse: every lane of a 64-lane engine
/// starts without a `mmap`. Stacks keep only the pages their lanes touched
/// resident.
pub(crate) const POOLED_STACKS: usize = 64;

/// One lane stack: [`GUARD_BYTES`] of inaccessible memory below
/// [`STACK_BYTES`] of read-write memory, so an overflow faults instead of
/// writing into whatever lies below. Dropping it unmaps both, so `Lane`'s
/// drop gives a `Stack` up only once no frame on it runs again.
struct Stack(Pages);

impl Stack {
    /// A stack from this thread's free list, else a freshly mapped one.
    fn take() -> Stack {
        FREE.with_borrow_mut(Vec::pop).unwrap_or_else(Stack::map)
    }

    /// Hands the stack to this thread's free list, or unmaps it when the
    /// list is full (or already torn down at thread exit).
    fn recycle(self) {
        let _ = FREE.try_with(move |free| {
            let mut free = free.borrow_mut();
            if free.len() < POOLED_STACKS {
                free.push(self);
            }
        });
    }

    fn map() -> Stack {
        let mut pages = Pages::new(GUARD_BYTES + STACK_BYTES);
        pages.guard_low(GUARD_BYTES);
        Stack(pages)
    }

    /// The usable bytes, as addresses.
    #[cfg(test)]
    fn usable(&self) -> std::ops::Range<usize> {
        self.0.as_ptr() as usize + GUARD_BYTES..self.top() as usize
    }

    /// One past the highest usable byte; page-aligned, so 16-aligned.
    fn top(&self) -> *mut u8 {
        self.0.as_ptr().wrapping_add(GUARD_BYTES + STACK_BYTES)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Its stack is the one executing.
    Running,
    /// Its saved `sp` waits for a switch: a lane that has not started or
    /// has switched away, or an origin inside [`Origin::enter`].
    Suspended,
    /// Never to run again: a lane whose entry returned, or whose `Lane` was
    /// dropped.
    Done,
}

/// One stack's side of a switch.
struct Context {
    /// The saved stack pointer while the context is suspended.
    sp: Cell<*mut u8>,
    state: Cell<State>,
    /// A lane's origin, which its finished entry switches back to.
    origin: Option<Rc<Context>>,
    /// Set by a lane's first run, which takes over its [`Start`].
    started: Cell<bool>,
    /// On an origin: a panic that escaped a lane's entry, re-raised by
    /// [`Origin::enter`].
    panic: Cell<Option<Box<dyn Any + Send>>>,
}

impl Context {
    fn new(state: State, origin: Option<Rc<Context>>) -> Rc<Context> {
        Rc::new(Context {
            sp: Cell::new(ptr::null_mut()),
            state: Cell::new(state),
            origin,
            started: Cell::new(false),
            panic: Cell::new(None),
        })
    }
}

thread_local! {
    /// The lane running on this thread; null on a stack that is no lane's.
    static CURRENT: Cell<*const Context> = const { Cell::new(ptr::null()) };
    /// Stacks no frame runs on, for the next [`Lane::new`] on this thread.
    static FREE: RefCell<Vec<Stack>> = const { RefCell::new(Vec::new()) };
}

/// The usable address ranges of the stacks on this thread's free list.
#[cfg(test)]
pub(crate) fn free_stacks() -> Vec<std::ops::Range<usize>> {
    FREE.with_borrow(|free| free.iter().map(Stack::usable).collect())
}

/// Marks `from` suspended (unless it is done) and `to` running, and switches
/// from the executing stack to `to`'s. Returns when a switch comes back to
/// `from`.
///
/// Panics, before switching, unless `to` is suspended.
///
/// # Safety
///
/// `from` must be the executing stack's context.
unsafe fn switch_contexts(from: &Context, to: &Context) {
    assert_eq!(
        to.state.get(),
        State::Suspended,
        "switched to a stack that is not waiting"
    );
    if from.state.get() == State::Running {
        from.state.set(State::Suspended);
    }
    to.state.set(State::Running);
    CURRENT.set(to);
    // SAFETY: `to` is suspended, so its `sp` was saved by the `switch` that
    // suspended it (or laid out by `Lane::new`) and its stack is mapped: a
    // `Lane` marks itself done before giving its stack up. `from` is the
    // executing stack's context, so the `sp` saved here is where it resumes.
    // `switch` saves `rbp, rbx, r12–r15` and `rsp`, not MXCSR or the x87
    // control word: nothing in the workspace changes either, so every stack
    // runs with the values the thread started with.
    unsafe { switch(from.sp.as_ptr(), to.sp.get()) };
}

/// The stack that starts a group of lanes, as a switch target for lanes that
/// finish.
pub(crate) struct Origin(Rc<Context>);

impl Origin {
    /// The calling stack's side of a new group of lanes.
    pub(crate) fn new() -> Origin {
        Origin(Context::new(State::Running, None))
    }

    /// Switches to `lane` and returns when a lane of this origin's group
    /// finishes; it re-raises a panic that escaped that lane's entry.
    ///
    /// Panics unless `lane` is suspended, or if the origin is already
    /// waiting in `enter`.
    pub(crate) fn enter(&self, lane: &Handle) {
        assert_eq!(
            self.0.state.get(),
            State::Running,
            "entered an origin that is already waiting"
        );
        let outer = CURRENT.get();
        // SAFETY: an origin that is not waiting is, by definition, the
        // stack that enters it.
        unsafe { switch_contexts(&self.0, &lane.0) };
        CURRENT.set(outer);
        if let Some(payload) = self.0.panic.take() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A lane as a switch target.
#[derive(Clone)]
pub(crate) struct Handle(Rc<Context>);

/// Suspends the running lane and switches to `to`; returns when a switch
/// comes back.
///
/// Panics, before switching, off a lane or unless `to` is suspended.
pub(crate) fn switch_to(to: &Handle) {
    let from = CURRENT.get();
    assert!(!from.is_null(), "switch_to called off a lane");
    // SAFETY: every switch sets `CURRENT` to the context it switches to,
    // and `enter` restores the one it found once its lanes are back, so a
    // non-null `CURRENT` is the executing lane's context. Its `Lane` keeps
    // it alive, or leaks it if dropped while the lane runs.
    unsafe { switch_contexts(&*from, &to.0) };
}

/// What a new stack's trampoline hands [`lane_entry`] in `r12`: the lane's
/// context and its entry closure.
struct Start<'a> {
    ctx: Rc<Context>,
    entry: Box<dyn FnOnce() + 'a>,
}

/// A stackful coroutine whose entry closure may borrow for `'a`.
pub(crate) struct Lane<'a> {
    ctx: Rc<Context>,
    stack: ManuallyDrop<Stack>,
    /// The [`Start`] that `Lane::new` leaked; the lane's first run takes it.
    start: *mut Start<'a>,
    borrows: PhantomData<&'a ()>,
}

impl<'a> Lane<'a> {
    /// A lane of `origin`'s group that runs `entry` from its first switch.
    pub(crate) fn new(origin: &Origin, entry: impl FnOnce() + 'a) -> Lane<'a> {
        let ctx = Context::new(State::Suspended, Some(Rc::clone(&origin.0)));
        let start = Box::into_raw(Box::new(Start {
            ctx: Rc::clone(&ctx),
            entry: Box::new(entry),
        }));
        let stack = Stack::take();
        // The first switch pops six registers and returns into the
        // trampoline, leaving `rsp` 16 bytes below the top: 16-aligned for
        // its `call`, with a zero word above it where a caller's return
        // address would sit, so an unwinder or frame walk ends there.
        let frame: [usize; 9] = [
            0,                                // r15
            0,                                // r14
            0,                                // r13
            start as usize,                   // r12: the trampoline's argument
            0,                                // rbx
            0,                                // rbp: ends the frame-pointer chain
            trampoline as *const () as usize, // where the first switch returns
            0,
            0,
        ];
        let sp = stack.top().wrapping_sub(size_of_val(&frame));
        // SAFETY: `sp` is 72 bytes below the top of a read-write mapping
        // of `STACK_BYTES` that no frame runs on, and 8-aligned.
        unsafe { sp.cast::<[usize; 9]>().write(frame) };
        ctx.sp.set(sp);
        Lane {
            ctx,
            stack: ManuallyDrop::new(stack),
            start,
            borrows: PhantomData,
        }
    }

    /// This lane as a switch target.
    pub(crate) fn handle(&self) -> Handle {
        Handle(Rc::clone(&self.ctx))
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        // No switch may reach this lane again: its stack goes, or its
        // frames' borrows end with `'a`.
        let state = self.ctx.state.replace(State::Done);
        if !self.ctx.started.get() {
            // SAFETY: the lane never ran, so `start` is still the box that
            // `Lane::new` leaked and nothing else will take it.
            drop(unsafe { Box::from_raw(self.start) });
        } else if state == State::Running {
            // Dropped from its own stack, or from a group it started: that
            // stack still executes and reads its context.
            std::mem::forget(Rc::clone(&self.ctx));
            return;
        } else if state == State::Suspended {
            // Stopped mid-body (its group's runner unwound): frames on the
            // stack may still be pointed at, so it stays mapped and leaks.
            return;
        }
        // SAFETY: the lane finished (its entry marks it done just before
        // the final switch away) or never started, so no frame on the stack
        // runs again, and `stack` is not touched after this.
        unsafe { ManuallyDrop::take(&mut self.stack) }.recycle();
    }
}

/// Saves the callee-saved registers on the current stack, stores `rsp` in
/// `*from`, and resumes the stack whose saved `rsp` is `to`.
///
/// # Safety
///
/// `from` must be writable, and `to` must be a stack pointer saved by
/// `switch` (or laid out like one by [`Lane::new`]) whose stack is still
/// mapped and whose frames expect to be resumed.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(from: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// The first code a lane runs: calls [`lane_entry`] with the [`Start`] that
/// [`Lane::new`] put in `r12`. `lane_entry` never returns.
#[unsafe(naked)]
unsafe extern "sysv64" fn trampoline() {
    std::arch::naked_asm!(
        "mov rdi, r12",
        "call {entry}",
        "ud2",
        entry = sym lane_entry,
    )
}

/// Runs a lane's entry closure under `catch_unwind`, then switches to the
/// lane's origin for the last time.
extern "sysv64" fn lane_entry(start: *mut Start<'_>) -> ! {
    let ctx: *const Context = {
        // SAFETY: `start` is the box `Lane::new` leaked, and this is the
        // lane's first run, so nothing else has taken it; setting `started`
        // keeps `Lane`'s drop from freeing it again.
        let Start { ctx, entry } = *unsafe { Box::from_raw(start) };
        ctx.started.set(true);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(entry)) {
            let origin = ctx.origin.as_ref().expect("a lane has an origin");
            origin.panic.set(Some(payload));
        }
        Rc::as_ptr(&ctx)
        // Everything the lane owned drops here; its `Lane` keeps `ctx`, and
        // `ctx` its origin, alive.
    };
    // SAFETY: `ctx` is alive (see above).
    let ctx = unsafe { &*ctx };
    ctx.state.set(State::Done);
    let origin = ctx.origin.as_deref().expect("a lane has an origin");
    // SAFETY: this stack is `ctx`'s lane's.
    unsafe { switch_contexts(ctx, origin) };
    unreachable!("a finished lane was switched to")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{OnceCell, RefCell};

    #[test]
    fn lanes_switch_among_themselves_and_finish_into_their_origin() {
        let log = RefCell::new(Vec::new());
        let origin = Origin::new();
        let handles: OnceCell<Vec<Handle>> = OnceCell::new();
        let lanes: Vec<Lane<'_>> = (0..2)
            .map(|me| {
                let (log, handles) = (&log, &handles);
                Lane::new(&origin, move || {
                    for step in 0..3 {
                        log.borrow_mut().push((me, step));
                        if me == 0 || step < 2 {
                            switch_to(&handles.get().unwrap()[1 - me]);
                        }
                    }
                })
            })
            .collect();
        assert!(handles
            .set(lanes.iter().map(Lane::handle).collect())
            .is_ok());
        origin.enter(&handles.get().unwrap()[0]);
        // Lane 1 finished first; lane 0 waits after its last step.
        assert_eq!(
            *log.borrow(),
            [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
        );
        origin.enter(&handles.get().unwrap()[0]);
        assert_eq!(log.borrow().len(), 6);
    }

    #[test]
    fn a_panic_escaping_a_lanes_entry_is_raised_by_enter() {
        let origin = Origin::new();
        let lane = Lane::new(&origin, || panic!("escaped"));
        let payload = catch_unwind(AssertUnwindSafe(|| origin.enter(&lane.handle())))
            .expect_err("enter re-raises the lane's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"escaped"));
    }

    #[test]
    fn a_lane_that_never_ran_drops_its_entry() {
        let token = Rc::new(());
        let held = Rc::clone(&token);
        drop(Lane::new(&Origin::new(), move || drop(held)));
        assert_eq!(Rc::strong_count(&token), 1);
    }

    #[test]
    #[should_panic(expected = "switched to a stack that is not waiting")]
    fn a_finished_lane_cannot_be_entered() {
        let origin = Origin::new();
        let lane = Lane::new(&origin, || ());
        origin.enter(&lane.handle());
        origin.enter(&lane.handle());
    }

    #[test]
    #[should_panic(expected = "switch_to called off a lane")]
    fn switching_from_off_a_lane_panics() {
        let lane = Lane::new(&Origin::new(), || ());
        switch_to(&lane.handle());
    }
}
