// Bad: arithmetic mixing unit dimensions outside the declared
// conversions (rule D7).

fn budget(e: Joules, d: Micros) -> f64 {
    let ok = e.get() + e.get();
    let bad = e.get() / d.get(); //~ D7
    ok + bad
}

struct Probe {
    power: Watts,
}

impl Probe {
    fn over(&self, e: Joules) -> bool {
        self.power.get() > e.get() //~ D7
    }
}
