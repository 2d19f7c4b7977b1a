//! Fixture: a lane engine's baton lock for R9, outside the engine's path.
//! `suppressed/crates/sched/src/engine.rs` holds the same text under the
//! `lane-engine` exemption's prefix; here both the parking loop and the
//! lane body fire. Not compiled — consumed as text by `tests/lint.rs`.

pub fn wait(baton: &Baton, lane: usize) -> Resume {
    loop {
        thread::park();
        if let Some(resume) = baton.sched.lock().unwrap().mailbox[lane].take() {
            return resume;
        }
    }
}

pub fn counting_lane(shared: Arc<Mutex<u64>>) -> LaneBody<u64> {
    Box::new(move || {
        let mut guard = shared.lock().unwrap();
        *guard += 1;
        *guard
    })
}
