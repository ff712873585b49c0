// Bad: a suppression without the mandatory reason is itself a
// diagnostic (rule S0), and the violation it tried to cover still fires.

//~v S0
// powadapt-lint: allow(D4)
pub fn set_cap(cap_watts: f64) {} //~ D4
