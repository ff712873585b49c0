// Bad: naming a rule that does not exist is a diagnostic (rule S0);
// only D4 and D7 are suppressible. The retired ids D1-D3 and D5, now
// enforced by clippy, and D8 and D9, now checked by rustc and runtime
// tests, are unknown too, so a leftover allow for one of them cannot
// linger. The retired `hot` directive is an S0 as well.

//~v S0
// powadapt-lint: allow(D2, reason = "membership-only set, never iterated")
pub fn set_cap(cap_watts: f64) {} //~ D4

//~v S0
// powadapt-lint: allow(D8, reason = "restore replays no events")
pub fn set_floor(floor_watts: f64) {} //~ D4

//~v S0
// powadapt-lint: allow(d9, reason = "amortized growth")
pub fn set_ceiling(ceiling_watts: f64) {} //~ D4

//~v S0
// powadapt-lint: hot
pub fn advance(until_ms: f64) {} //~ D4
