// lint-as: crates/lapi/src/engine.rs
// Fixture: the sanctioned shapes — guard passed to the wait (condvar
// pattern), guard dropped first, guard confined to an inner scope, and a
// blocking call in a nested fn, which the outer guard does not reach.

fn condvar_wait(slot: &Slot) {
    let mut st = slot.st.lock();
    // liveness: the dispatcher fills the slot and notifies the cv (L6).
    while st.is_none() {
        slot.cv.wait_until(&mut st, deadline());
    }
}

fn drop_before_recv(q: &Queue, ch: &Chan) {
    let mut st = q.state.lock();
    st.pending += 1;
    drop(st);
    let _pkt = ch.recv();
}

fn scope_before_recv(q: &Queue, ch: &Chan) {
    {
        let mut st = q.state.lock();
        st.pending += 1;
    }
    let _pkt = ch.recv();
}

fn guard_then_nested_fn(q: &Queue) {
    let mut st = q.state.lock();
    // The nested fn is its own item: `st` is not held inside it.
    fn helper(ch: &Chan) {
        let _pkt = ch.recv();
    }
    st.pending += 1;
}
