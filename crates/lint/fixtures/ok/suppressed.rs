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
    fn csv_cell(&self) -> f64 {
        // powadapt-lint: allow(D7, reason = "CSV boundary serialization; the column header names the unit")
        self.power.0
    }
}

struct Queue {
    held: Vec<u64>,
}

impl Queue {
    // powadapt-lint: hot
    fn push(&mut self, v: u64) {
        // powadapt-lint: allow(d9, reason = "amortized: held is recycled and only grows to its high-water mark")
        self.held.push(v);
    }
}
