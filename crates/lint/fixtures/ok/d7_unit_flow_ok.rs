// Good: same-dimension arithmetic only; the single boundary mix is
// justified inline.

fn budget(e: Joules, spare: Joules) -> f64 {
    e.get() + spare.get()
}

struct Probe {
    power: Watts,
}

impl Probe {
    fn csv_cell(&self, window: Millis) -> f64 {
        // powadapt-lint: allow(D7, reason = "CSV boundary: the column header names the W*ms unit")
        self.power.get() * window.get()
    }
}
