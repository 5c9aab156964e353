// Fixture for rule L007 (wall-clock-in-sim).
// The entry point below makes this crate a simulation crate, so host
// clocks and entropy sources are violations anywhere in non-test code.

impl Network {
    pub fn run(&mut self) {
        self.step();
    }
}

pub fn bad_seed() -> u64 {
    let t0 = Instant::now(); // VIOLATION: host clock in a sim crate.
    let rng = thread_rng(); // VIOLATION: OS entropy in a sim crate.
    t0.elapsed().as_nanos() as u64
}

pub fn watchdog() -> u64 {
    // lint:allow(L007): watchdog wall clock, never feeds sim state
    let t0 = Instant::now();
    0
}

#[cfg(test)]
mod tests {
    #[test]
    fn wall_clock_is_fine_in_tests() {
        let _t = Instant::now();
    }
}
