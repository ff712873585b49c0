// Bad: an empty reason does not count as a reason (rule S0).

//~v S0
// powadapt-lint: allow(D4, reason = "")
pub fn set_cap(cap_watts: f64) {} //~ D4
