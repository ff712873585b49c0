// Bad: a reasoned allow pointing at the wrong line. A standalone
// suppression covers only the next source line, so the violation two
// lines down still fires and the stray allow is reported as unused (S1).

//~v S1
// powadapt-lint: allow(D4, reason = "aimed at the blank line below, not at the fn")

pub fn set_cap(cap_watts: f64) {} //~ D4
