// Bad: naming a rule that does not exist is a diagnostic (rule S0);
// only D4 and D7-D9 are suppressible. The retired ids D1-D3 and D5,
// now enforced by clippy, are unknown too, so a leftover allow for one
// of them cannot linger.

//~v S0
// powadapt-lint: allow(D2, reason = "membership-only set, never iterated")
pub fn set_cap(cap_watts: f64) {} //~ D4
