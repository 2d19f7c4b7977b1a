//! Fixture: a lane engine's baton lock for R9, under the engine's path.
//! Linted with `suppressed/` as the root this file sits under the
//! `lane-engine` exemption's prefix and is clean with no suppression;
//! `firing/async_block_engine.rs` is the same text elsewhere. Not compiled.

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
