// Bad: a suppression that matches nothing is flagged (rule S1) so stale
// allows cannot accumulate after the code they covered is fixed.

//~v S1
// powadapt-lint: allow(D4, reason = "the raw f64 this covered became a Watts parameter")
pub fn set_cap(cap: Watts) {}
