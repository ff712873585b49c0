// Good: every violation here carries a well-formed, reasoned
// suppression, so the analyzer exits clean (and records each use in the
// JSON report's audit trail).

// powadapt-lint: allow(D4, reason = "FFI-shaped boundary: the C caller passes raw watts")
pub fn set_cap(cap_watts: f64) {
    let _ = cap_watts;
}

pub fn set_window(window_ms: f64) -> f64 { // powadapt-lint: allow(D4, reason = "config-file boundary; parsed into Millis one frame down")
    window_ms
}

struct Probe {
    power: Watts,
}

impl Probe {
    fn csv_cell(&self, window: Millis) -> f64 {
        // powadapt-lint: allow(D7, reason = "CSV boundary: the column header names the W*ms unit")
        self.power.get() * window.get()
    }

    fn headroom(&self, e: Joules) -> f64 {
        self.power.get() - e.get() // powadapt-lint: allow(d7, reason = "lowercase ids parse too; a legacy score mixing units")
    }
}
