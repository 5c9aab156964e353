// Fixture for rule L010 (cross-shard-access). `run_shard` is the worker
// seed; its Mutex/Barrier parameters are cross-shard state. Every use must
// go through a synchronized accessor.

fn run_shard(sid: usize, next_times: &Mutex<Vec<f64>>, barrier: &Barrier) {
    loop {
        let t = drain_epoch(net); // Clean: the drain cannot see the mailboxes.
        barrier.wait();
        lock_clean(next_times)[sid] = t; // Clean: exchange phase, locked.
        let raw = next_times; // VIOLATION: unsynchronized alias.
        // lint:allow(L010): poisoning probe reads the lock state, not the data
        let poisoned = next_times.is_poisoned();
        barrier.wait();
    }
}
